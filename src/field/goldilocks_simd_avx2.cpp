/**
 * @file
 * The AVX2 LaneKernels table. This TU, like every file including
 * goldilocks_simd_avx2.h, is compiled with -mavx2 (a per-file flag in
 * src/field/CMakeLists.txt); goldilocks_simd.cpp hands its table out only
 * after CPUID reports AVX2.
 */

#include "field/goldilocks_simd_avx2.h"
#include "field/goldilocks_simd_kernels.h"

namespace unizk {

const LaneKernels &
avx2LaneKernels()
{
    static const LaneKernels kernels =
        makeLaneKernels<avx2::FpVec4Avx2>();
    return kernels;
}

} // namespace unizk
