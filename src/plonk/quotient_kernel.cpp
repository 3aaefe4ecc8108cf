#include "plonk/quotient_kernel.h"

#include "common/thread_pool.h"

namespace unizk {

void
plonkQuotientRange(SimdLevel level, const PlonkQuotientInputs &in, Fp *out,
                   size_t lo, size_t hi)
{
    unizk_assert(isPowerOfTwo(in.points) && in.points >= 4 &&
                     in.points >= kSimdBatchWidth,
                 "quotient domain must be a power of two of >= 4 points "
                 "and >= one lane group");
    unizk_assert(lo % kSimdBatchWidth == 0 && hi % kSimdBatchWidth == 0 &&
                     hi <= in.points,
                 "quotient range must cover whole lane groups");
    unizk_assert(simdLevelAvailable(level),
                 "quotient kernel requested for an unavailable SIMD level");
#if defined(UNIZK_HAVE_AVX2)
    if (level == SimdLevel::Avx2) {
        plonkQuotientGroupsAvx2(in, out, lo, hi);
        return;
    }
#endif
    plonkQuotientGroups<FpVec4Scalar>(in, out, lo, hi);
}

void
plonkQuotient(const PlonkQuotientInputs &in, Fp *out)
{
    const SimdLevel level = activeSimdLevel();
    // One grain of 64 lane groups: 256 points.
    parallelFor(0, in.points / kSimdBatchWidth, /*grain=*/64,
                [&](size_t lo, size_t hi) {
                    plonkQuotientRange(level, in, out,
                                       lo * kSimdBatchWidth,
                                       hi * kSimdBatchWidth);
                });
}

} // namespace unizk
