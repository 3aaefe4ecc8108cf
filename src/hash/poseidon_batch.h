/**
 * @file
 * The batched Poseidon permutation, templated over a 4-wide Goldilocks
 * lane type (FpVec4Scalar or the AVX2 backend, field/goldilocks_simd*).
 * Vectorization is *vertical*: lane k of every vector belongs to sponge
 * state k, so all four states advance through identical operations in
 * lockstep and no horizontal (cross-lane) instruction is ever needed --
 * full rounds, the dense PreMDSMatrix, and the sparse partial-round
 * chain all become element-wise lane arithmetic against broadcast
 * constants.
 *
 * This mirrors Poseidon::permute (the optimized Algorithm-1 form) step
 * for step, on lazily reduced lanes (field/goldilocks_simd.h): a state
 * element may hold any 64-bit value congruent to its true value between
 * operations, and is canonicalized once, on the way back to memory.
 *  - Round constants are canonical, so add() may take a lazy state.
 *  - The linear layers (MDS rows, PreMDSMatrix rows, and the sparse
 *    [m00, v] row) go through V::dot against rows pre-split into
 *    22/22/20-bit limbs (Poseidon::mdsLimbs and friends); each state
 *    element is split into 32-bit halves once per layer, not per row.
 *  - The partial rounds' s[i+1] + w[i] * s[0] is one fused mulAdd, so
 *    two lazy values are never added directly.
 * Every lane value is congruent to the scalar permute()'s, so the
 * canonical outputs are bit-identical; the dispatch-equivalence suite
 * pins that against permuteNaive.
 *
 * No intrinsics appear here (the raw-simd-intrinsic lint rule scopes
 * them to src/field/goldilocks_simd*); each backend TU instantiates the
 * template with its own lane type under its own codegen flags.
 */

#ifndef UNIZK_HASH_POSEIDON_BATCH_H
#define UNIZK_HASH_POSEIDON_BATCH_H

#include "field/goldilocks_simd.h"
#include "hash/poseidon.h"

namespace unizk {

template <typename V>
inline void
poseidonPermuteBatch4Impl(const Poseidon &p, PoseidonState *states)
{
    constexpr uint32_t t = PoseidonConfig::width;
    constexpr uint32_t rp = PoseidonConfig::partialRounds;
    constexpr uint32_t half = PoseidonConfig::halfFullRounds;
    static_assert(t <= kLaneDotMaxTerms, "state too wide for V::dot");

    const auto &arc = p.roundConstants();
    const FpLimbs *mds = p.mdsLimbs();
    const FpLimbs *pre = p.preLimbs();

    // Transpose in: element i of the four states becomes one vector.
    V st[t];
    for (uint32_t i = 0; i < t; ++i) {
        uint64_t column[kSimdBatchWidth];
        for (size_t k = 0; k < kSimdBatchWidth; ++k)
            column[k] = states[k][i].value();
        st[i] = V::loadRaw(column);
    }

    // x^7, same multiplication chain as Poseidon::sbox.
    const auto sbox = [](const V &x) {
        const V x2 = V::square(x);
        const V x3 = V::mul(x2, x);
        const V x6 = V::square(x3);
        return V::mul(x6, x);
    };

    // The high halves of the state, once per linear layer.
    V xh[t];
    const auto splitState = [&st, &xh] {
#pragma GCC unroll 12
        for (uint32_t j = 0; j < t; ++j)
            xh[j] = V::high(st[j]);
    };

    // Dense t x t matrix, one lazily reduced dot product per row.
    const auto dense = [&](const FpLimbs *m) {
        splitState();
        V out[t];
#pragma GCC unroll 12
        for (uint32_t i = 0; i < t; ++i)
            out[i] = V::dot(&m[i * t], st, xh, t);
        for (uint32_t i = 0; i < t; ++i)
            st[i] = out[i];
    };

    const auto fullRound = [&](uint32_t round) {
#pragma GCC unroll 12
        for (uint32_t i = 0; i < t; ++i)
            st[i] = sbox(V::add(st[i], V::broadcast(arc[round][i])));
        dense(mds);
    };

    for (uint32_t r = 0; r < half; ++r)
        fullRound(r);

    // PrePartialRound: constant add then dense PreMDSMatrix.
    const PoseidonState &pre_c = p.prePartialConstants();
    for (uint32_t i = 0; i < t; ++i)
        st[i] = V::add(st[i], V::broadcast(pre_c[i]));
    dense(pre);

    // Partial rounds: sbox lane 0, scalar constant, sparse layer.
    const auto &partial_c = p.partialConstants();
    const auto &layers = p.sparseLayers();
    for (uint32_t r = 0; r < rp; ++r) {
        st[0] = V::add(sbox(st[0]), V::broadcast(partial_c[r]));

        const SparseMdsLayer &layer = layers[r];
        splitState();
        const V new0 = V::dot(layer.rowLimbs.data(), st, xh, t);
#pragma GCC unroll 11
        for (uint32_t i = 0; i + 1 < t; ++i)
            st[i + 1] =
                V::mulAdd(st[i + 1], st[0], V::broadcast(layer.w[i]));
        st[0] = new0;
    }

    for (uint32_t r = 0; r < half; ++r)
        fullRound(half + rp + r);

    // Transpose out, canonicalizing each lane.
    for (uint32_t i = 0; i < t; ++i) {
        Fp column[kSimdBatchWidth];
        st[i].store(column);
        for (size_t k = 0; k < kSimdBatchWidth; ++k)
            states[k][i] = column[k];
    }
}

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

} // namespace unizk

#endif // UNIZK_HASH_POSEIDON_BATCH_H
