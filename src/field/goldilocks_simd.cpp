#include "field/goldilocks_simd.h"

#include <atomic>

#include "common/env.h"
#include "common/logging.h"
#include "field/goldilocks_simd_kernels.h"

namespace unizk {

namespace {

/**
 * Dispatched level, encoded as int(SimdLevel); -1 = not yet selected.
 * Selection is idempotent (it depends only on the build, CPUID, and
 * the startup environment), so concurrent first calls racing to store
 * the same value are benign; the atomic keeps the race data-race-free
 * for TSAN.
 */
std::atomic<int> g_simd_level{-1};

/** True when the CPU can execute the AVX2 backend. */
bool
avx2CpuSupported()
{
#if defined(UNIZK_HAVE_AVX2) && defined(__GNUC__)
    return __builtin_cpu_supports("avx2") != 0;
#else
    return false;
#endif
}

SimdLevel
bestAvailableLevel()
{
    return simdLevelAvailable(SimdLevel::Avx2) ? SimdLevel::Avx2
                                               : SimdLevel::Scalar;
}

SimdLevel
selectSimdLevel()
{
    // Index into the allowed list below.
    enum { kAuto = 0, kAvx2 = 1, kScalar = 2 };
    const auto choice =
        envChoice("UNIZK_SIMD", {"auto", "avx2", "scalar"});
    if (!choice.has_value() || *choice == kAuto)
        return bestAvailableLevel();
    if (*choice == kScalar)
        return SimdLevel::Scalar;
    if (!simdLevelAvailable(SimdLevel::Avx2)) {
        warn("UNIZK_SIMD=avx2 requested but AVX2 is ",
             avx2CpuSupported() ? "not compiled in"
                                : "unavailable on this CPU",
             "; falling back to scalar");
        return SimdLevel::Scalar;
    }
    return SimdLevel::Avx2;
}

} // namespace

const char *
simdLevelName(SimdLevel level)
{
    switch (level) {
    case SimdLevel::Avx2:
        return "avx2";
    case SimdLevel::Scalar:
        break;
    }
    return "scalar";
}

bool
simdLevelAvailable(SimdLevel level)
{
    if (level == SimdLevel::Scalar)
        return true;
    return avx2CpuSupported();
}

SimdLevel
activeSimdLevel()
{
    int level = g_simd_level.load(std::memory_order_acquire);
    if (level < 0) {
        level = static_cast<int>(selectSimdLevel());
        g_simd_level.store(level, std::memory_order_release);
    }
    return static_cast<SimdLevel>(level);
}

bool
setSimdLevel(SimdLevel level)
{
    if (!simdLevelAvailable(level))
        return false;
    g_simd_level.store(static_cast<int>(level),
                       std::memory_order_release);
    return true;
}

const LaneKernels &
laneKernels(SimdLevel level)
{
    unizk_assert(simdLevelAvailable(level),
                 "lane kernels requested for an unavailable SIMD level");
#if defined(UNIZK_HAVE_AVX2)
    if (level == SimdLevel::Avx2)
        return avx2LaneKernels();
#endif
    static const LaneKernels scalar =
        makeLaneKernels<FpVec4Scalar>();
    return scalar;
}

} // namespace unizk
