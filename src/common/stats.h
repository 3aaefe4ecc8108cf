/**
 * @file
 * Wall-clock stopwatch: the sanctioned timer for code outside src/obs
 * (kernel-class time goes through trace/kernel_class.h's KernelScope).
 */

#ifndef UNIZK_COMMON_STATS_H
#define UNIZK_COMMON_STATS_H

#include <chrono>

namespace unizk {

/** Simple wall-clock stopwatch. */
class Stopwatch
{
  public:
    Stopwatch() : start(std::chrono::steady_clock::now()) {}

    double
    elapsedSeconds() const
    {
        const auto now = std::chrono::steady_clock::now();
        return std::chrono::duration<double>(now - start).count();
    }

  private:
    std::chrono::steady_clock::time_point start;
};

} // namespace unizk

#endif // UNIZK_COMMON_STATS_H
