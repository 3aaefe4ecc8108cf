/**
 * @file
 * The batched Poseidon permutation, templated over a 4-wide Goldilocks
 * lane type (FpVec4Scalar or the AVX2 backend, field/goldilocks_simd*).
 * Vectorization is *vertical*: lane k of every vector belongs to sponge
 * state k, so all four states advance through identical operations in
 * lockstep and no horizontal (cross-lane) instruction is ever needed --
 * full rounds, the fused pre-partial layer, and the sparse
 * partial-round chain all become element-wise lane arithmetic against
 * broadcast constants.
 *
 * This mirrors Poseidon::permute (the optimized Algorithm-1 form) step
 * for step, on lazily reduced lanes (field/goldilocks_simd.h): a state
 * element may hold any 64-bit value congruent to its true value between
 * operations, and is canonicalized once, on the way back to memory.
 *  - Round constants are canonical, so add() may take a lazy state;
 *    so are the fused constants added after round half - 1's layer.
 *  - The linear layers (MDS rows, the fused PreMDS * MDS rows, and the
 *    sparse [m00, v] row) go through V::dot against rows pre-split into
 *    22/22/20-bit limbs (Poseidon::mdsLimbs and friends); each state
 *    element is split into 32-bit halves once per layer, not per row.
 *    That is 8 dense layers per permutation.
 *  - The partial rounds' s[i+1] + w[i] * s[0] is one fused mulAdd, so
 *    two lazy values are never added directly.
 *  - The last dense layer computes, and the store writes, only output
 *    rows [lo, hi): the lanes the caller reads. The others keep their
 *    input values.
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
poseidonPermuteBatch4Impl(const Poseidon &p, PoseidonState *states,
                          uint32_t lo, uint32_t hi)
{
    constexpr uint32_t t = PoseidonConfig::width;
    constexpr uint32_t rp = PoseidonConfig::partialRounds;
    constexpr uint32_t half = PoseidonConfig::halfFullRounds;
    static_assert(t <= kLaneDotMaxTerms, "state too wide for V::dot");

    const auto &arc = p.roundConstants();
    const FpLimbs *mds = p.mdsLimbs();

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

    const auto sboxLayer = [&](uint32_t round) {
#pragma GCC unroll 12
        for (uint32_t i = 0; i < t; ++i)
            st[i] = sbox(V::add(st[i], V::broadcast(arc[round][i])));
    };

    for (uint32_t r = 0; r + 1 < half; ++r) {
        sboxLayer(r);
        dense(mds);
    }

    // Round half - 1 with the PrePartialRound folded in.
    sboxLayer(half - 1);
    dense(p.fusedLimbs());
    const PoseidonState &fused_c = p.fusedConstants();
    for (uint32_t i = 0; i < t; ++i)
        st[i] = V::add(st[i], V::broadcast(fused_c[i]));

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

    for (uint32_t r = 0; r + 1 < half; ++r) {
        sboxLayer(half + rp + r);
        dense(mds);
    }

    // The last round's layer computes only the rows the caller reads;
    // transpose them out, canonicalizing each lane.
    sboxLayer(half + rp + half - 1);
    splitState();
    for (uint32_t i = lo; i < hi; ++i) {
        Fp column[kSimdBatchWidth];
        V::dot(&mds[i * t], st, xh, t).store(column);
        for (size_t k = 0; k < kSimdBatchWidth; ++k)
            states[k][i] = column[k];
    }
}

/**
 * Backend kernels: advance exactly kSimdBatchWidth sponge states in
 * place, writing output lanes [lo, hi) as Poseidon::permuteBatch does.
 * Exposed (rather than hidden behind permuteBatch) so the test suite
 * can differential-test both backends on any host regardless of the
 * dispatched level.
 * @{
 */
void poseidonPermuteBatch4Scalar(const Poseidon &p, PoseidonState *states,
                                 uint32_t lo = 0,
                                 uint32_t hi = PoseidonConfig::width);
#if defined(UNIZK_HAVE_AVX2)
void poseidonPermuteBatch4Avx2(const Poseidon &p, PoseidonState *states,
                               uint32_t lo = 0,
                               uint32_t hi = PoseidonConfig::width);
#endif
/** @} */

} // namespace unizk

#endif // UNIZK_HASH_POSEIDON_BATCH_H
