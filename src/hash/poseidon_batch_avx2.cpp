/**
 * @file
 * The AVX2 instantiation of the batched Poseidon permutation. Compiled
 * with -mavx2 (per-file flag in src/hash/CMakeLists.txt) because it
 * includes the AVX2 lane type; Poseidon::permuteBatch calls it only
 * when activeSimdLevel() is Avx2.
 */

#include "field/goldilocks_simd_avx2.h"
#include "hash/poseidon_batch.h"

namespace unizk {

void
poseidonPermuteBatch4Avx2(const Poseidon &p, PoseidonState *states,
                          uint32_t lo, uint32_t hi)
{
    poseidonPermuteBatch4Impl<avx2::FpVec4Avx2>(p, states, lo, hi);
}

} // namespace unizk
