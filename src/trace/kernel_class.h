/**
 * @file
 * The Table 1 kernel classes and the CPU prover's per-class wall time:
 * KernelClass names the class, KernelTimeBreakdown sums seconds per
 * class, and KernelScope is the one way a prover kernel opens its obs
 * span and charges its time to a class.
 */

#ifndef UNIZK_TRACE_KERNEL_CLASS_H
#define UNIZK_TRACE_KERNEL_CLASS_H

#include <array>
#include <cstddef>

#include "common/stats.h"
#include "obs/obs.h"

namespace unizk {

struct ProverContext;

/**
 * Categories of work in hash-based ZKP proof generation, matching the
 * columns of Table 1 in the paper.
 */
enum class KernelClass
{
    Polynomial,      ///< element-wise / misc polynomial computations
    Ntt,             ///< all (i)NTT and LDE work
    MerkleTree,      ///< Merkle tree hashing
    OtherHash,       ///< Fiat-Shamir / proof-of-work hashing
    LayoutTransform, ///< transposes and other data reshuffling
    NumClasses,
};

/** Printable name of a kernel class. */
const char *kernelClassName(KernelClass c);

/**
 * Wall-clock seconds per kernel class, filled by KernelScope. Only the
 * thread that submits a parallel region writes it (KernelScope panics
 * on a pool worker), so it is a plain array.
 */
class KernelTimeBreakdown
{
  public:
    void
    add(KernelClass c, double seconds)
    {
        seconds_[static_cast<size_t>(c)] += seconds;
    }

    double
    seconds(KernelClass c) const
    {
        return seconds_[static_cast<size_t>(c)];
    }

    /** Total across all classes. */
    double total() const;

    /** Fraction of total time in class @p c (0 if total is 0). */
    double fraction(KernelClass c) const;

    /** Copy with every class scaled by @p factor (e.g. 1/threads). */
    KernelTimeBreakdown scaledBy(double factor) const;

  private:
    std::array<double, static_cast<size_t>(KernelClass::NumClasses)>
        seconds_{};
};

/**
 * One prover kernel: opens the obs span @p span (a static string) and,
 * when ctx.breakdown is set, adds the scope's wall time to class @p cls,
 * whether obs is enabled or not. A scope must be opened by the thread
 * that submits the kernel's parallel regions, never inside a pool chunk
 * (the breakdown is not synchronised), and never inside another
 * KernelScope (its time would count twice); both panic.
 */
class KernelScope
{
  public:
    KernelScope(const ProverContext &ctx, KernelClass cls,
                const char *span);
    ~KernelScope();

    KernelScope(const KernelScope &) = delete;
    KernelScope &operator=(const KernelScope &) = delete;

  private:
    obs::Span span_;
    KernelTimeBreakdown *breakdown_;
    KernelClass cls_;
    Stopwatch watch_;
};

} // namespace unizk

#endif // UNIZK_TRACE_KERNEL_CLASS_H
