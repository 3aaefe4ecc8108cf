/**
 * @file
 * Runtime-dispatched SIMD lane layer for the Goldilocks field, built for
 * the batched Poseidon sponge path ("Gotta Hash 'Em All": ZK-hash
 * throughput is won by running independent sponge states across SIMD
 * lanes, not by vectorizing inside one state).
 *
 * Two lane backends share one shape:
 *
 *  - FpVec4Scalar (here, always compiled): four Fp lanes advanced with
 *    the branchless scalar primitives. This is both the portable
 *    fallback and the differential oracle for the vector backend.
 *  - FpVec4Avx2 (goldilocks_simd_avx2.cpp, compiled only when the
 *    toolchain targets x86-64): four 64-bit lanes in one __m256i,
 *    add/sub/mul pinned to the same branchless identities as the
 *    scalar path (2^64 === 2^32 - 1, 2^96 === -1 mod p), so every lane
 *    holds the canonical representative after every operation and the
 *    two backends agree bit for bit.
 *
 * Besides element-wise add/sub/mul, each lane type has dot(row, x, n):
 * a row of broadcast constants against n lane vectors, reduced once
 * per output instead of once per product (the Poseidon linear layers).
 *
 * Dispatch is decided once per process: the UNIZK_SIMD environment
 * variable ({auto, avx2, scalar}, parsed strictly through common/env.h)
 * overrides CPUID auto-detection. Forcing a level the build or the CPU
 * cannot execute warns and falls back to scalar -- never crashes.
 *
 * Raw vector intrinsics are confined to src/hash/goldilocks_simd*
 * (enforced by the raw-simd-intrinsic lint rule): everything else goes
 * through Poseidon::permuteBatch and the hashing.h batch entry points,
 * which consult activeSimdLevel().
 */

#ifndef UNIZK_HASH_GOLDILOCKS_SIMD_H
#define UNIZK_HASH_GOLDILOCKS_SIMD_H

#include <cstddef>

#include "hash/poseidon.h"

namespace unizk {

/** Number of sponge states one SIMD batch advances together. */
constexpr size_t kSimdBatchWidth = 4;

/** Available SIMD dispatch levels, in increasing capability order. */
enum class SimdLevel
{
    Scalar,
    Avx2,
};

/** Human-readable name ("scalar" / "avx2") for logs and bench JSON. */
const char *simdLevelName(SimdLevel level);

/**
 * True when @p level can execute on this build *and* this CPU (the
 * backend was compiled in and CPUID reports the feature). Scalar is
 * always available.
 */
bool simdLevelAvailable(SimdLevel level);

/**
 * The level Poseidon::permuteBatch dispatches to. Selected once on
 * first use: UNIZK_SIMD={auto,avx2,scalar} when set (unknown spellings
 * warn and mean auto; forcing an unavailable level warns and falls
 * back to scalar), otherwise the best available level.
 */
SimdLevel activeSimdLevel();

/**
 * Override the dispatch level at runtime (test/bench hook, also behind
 * the bench_poseidon --simd flag). Returns false -- and changes
 * nothing -- when the level is unavailable on this host. Results are
 * identical at every level, so flipping it mid-run is always sound.
 */
bool setSimdLevel(SimdLevel level);

/**
 * Portable lane type: four Fp lanes with the branchless scalar
 * primitives. Shape-identical to the AVX2 backend so the batched
 * permutation template instantiates over either.
 */
struct FpVec4Scalar
{
    Fp lane[kSimdBatchWidth];

    /** Element @p i of four consecutive sponge states, one per lane. */
    static FpVec4Scalar
    gather(const PoseidonState *states, size_t i)
    {
        FpVec4Scalar out;
        for (size_t k = 0; k < kSimdBatchWidth; ++k)
            out.lane[k] = states[k][i];
        return out;
    }

    /** Write the lanes back into element @p i of four states. */
    void
    scatter(PoseidonState *states, size_t i) const
    {
        for (size_t k = 0; k < kSimdBatchWidth; ++k)
            states[k][i] = lane[k];
    }

    /** The same constant in every lane. */
    static FpVec4Scalar
    broadcast(Fp x)
    {
        FpVec4Scalar out;
        for (auto &l : out.lane)
            l = x;
        return out;
    }

    static FpVec4Scalar
    add(const FpVec4Scalar &a, const FpVec4Scalar &b)
    {
        FpVec4Scalar out;
        for (size_t k = 0; k < kSimdBatchWidth; ++k)
            out.lane[k] = Fp::addBranchless(a.lane[k], b.lane[k]);
        return out;
    }

    static FpVec4Scalar
    sub(const FpVec4Scalar &a, const FpVec4Scalar &b)
    {
        FpVec4Scalar out;
        for (size_t k = 0; k < kSimdBatchWidth; ++k)
            out.lane[k] = Fp::subBranchless(a.lane[k], b.lane[k]);
        return out;
    }

    static FpVec4Scalar
    mul(const FpVec4Scalar &a, const FpVec4Scalar &b)
    {
        FpVec4Scalar out;
        for (size_t k = 0; k < kSimdBatchWidth; ++k)
            out.lane[k] = Fp::mulBranchless(a.lane[k], b.lane[k]);
        return out;
    }

    /**
     * Canonical sum_j row[j] * x[j] for n <= PoseidonConfig::width:
     * the lazily reduced fpDot, once per lane.
     */
    static FpVec4Scalar
    dot(const Fp *row, const FpVec4Scalar *x, size_t n)
    {
        FpVec4Scalar out;
        Fp column[PoseidonConfig::width];
        for (size_t k = 0; k < kSimdBatchWidth; ++k) {
            for (size_t j = 0; j < n; ++j)
                column[j] = x[j].lane[k];
            out.lane[k] = fpDot(row, column, n);
        }
        return out;
    }
};

/**
 * Backend kernels: advance exactly kSimdBatchWidth sponge states in
 * place. Exposed (rather than hidden behind permuteBatch) so the test
 * suite can differential-test both backends on any host regardless of
 * the dispatched level.
 * @{
 */
void poseidonPermuteBatch4Scalar(const Poseidon &p, PoseidonState *states);
#if defined(UNIZK_HAVE_AVX2)
void poseidonPermuteBatch4Avx2(const Poseidon &p, PoseidonState *states);
#endif
/** @} */

/**
 * Backend dot products through each lane type's dot(): out[k] = sum over
 * j < n of row[j] * states[k][j], for n <= PoseidonConfig::width.
 * Exposed for the edge-value differential tests of the lazy reduction.
 * @{
 */
void fpDotBatch4Scalar(const Fp *row, const PoseidonState *states, size_t n,
                       Fp *out);
#if defined(UNIZK_HAVE_AVX2)
void fpDotBatch4Avx2(const Fp *row, const PoseidonState *states, size_t n,
                     Fp *out);
#endif
/** @} */

} // namespace unizk

#endif // UNIZK_HASH_GOLDILOCKS_SIMD_H
