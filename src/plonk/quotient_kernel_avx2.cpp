/**
 * @file
 * The AVX2 instantiation of the Plonk quotient kernel. Compiled with
 * -mavx2 (per-file flag in src/plonk/CMakeLists.txt) because it
 * includes the AVX2 lane type; plonkQuotientRange calls it only when
 * the requested level is Avx2.
 */

#include "field/goldilocks_simd_avx2.h"
#include "plonk/quotient_kernel.h"

namespace unizk {

void
plonkQuotientGroupsAvx2(const PlonkQuotientInputs &in, Fp *out, size_t lo,
                        size_t hi)
{
    plonkQuotientGroups<avx2::FpVec4Avx2>(in, out, lo, hi);
}

} // namespace unizk
