/**
 * @file
 * The batched Poseidon permutation, templated over a 4-wide Goldilocks
 * lane type (FpVec4Scalar or the AVX2 backend). Vectorization is
 * *vertical*: lane k of every vector belongs to sponge state k, so all
 * four states advance through identical operations in lockstep and no
 * horizontal (cross-lane) instruction is ever needed -- full rounds,
 * the dense PreMDSMatrix, and the sparse partial-round chain all
 * become element-wise vector arithmetic against broadcast constants.
 *
 * This mirrors Poseidon::permute (the optimized Algorithm-1 form) step
 * for step. The linear layers (MDS rows, PreMDSMatrix rows, and the
 * sparse [m00, v] row) go through V::dot, which -- like the scalar
 * fpDot -- accumulates a whole row unreduced and reduces once per
 * output. Since every lane operation, dot included, returns the
 * canonical representative, the result is bit-identical to four scalar
 * permute() calls, which the dispatch-equivalence suite pins against
 * permuteNaive.
 *
 * No intrinsics appear here (the raw-simd-intrinsic lint rule scopes
 * them to goldilocks_simd*); each backend TU instantiates the template
 * with its own lane type under its own codegen flags.
 */

#ifndef UNIZK_HASH_POSEIDON_BATCH_H
#define UNIZK_HASH_POSEIDON_BATCH_H

#include "hash/goldilocks_simd.h"
#include "hash/poseidon.h"

namespace unizk {

template <typename V>
inline void
poseidonPermuteBatch4Impl(const Poseidon &p, PoseidonState *states)
{
    constexpr uint32_t t = PoseidonConfig::width;
    constexpr uint32_t rp = PoseidonConfig::partialRounds;
    constexpr uint32_t half = PoseidonConfig::halfFullRounds;

    const auto &arc = p.roundConstants();
    const Fp *mds = p.mdsFlat();
    const Fp *pre = p.preFlat();

    V st[t];
    for (uint32_t i = 0; i < t; ++i)
        st[i] = V::gather(states, i);

    // x^7, same multiplication chain as Poseidon::sbox.
    const auto sbox = [](const V &x) {
        const V x2 = V::mul(x, x);
        const V x3 = V::mul(x2, x);
        const V x6 = V::mul(x3, x3);
        return V::mul(x6, x);
    };

    // Dense t x t matrix, one lazily reduced dot product per row.
    const auto dense = [&st](const Fp *m) {
        V out[t];
        for (uint32_t i = 0; i < t; ++i)
            out[i] = V::dot(&m[i * t], st, t);
        for (uint32_t i = 0; i < t; ++i)
            st[i] = out[i];
    };

    const auto fullRound = [&](uint32_t round) {
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
        const V new0 = V::dot(layer.row.data(), st, t);
        for (uint32_t i = 0; i + 1 < t; ++i)
            st[i + 1] = V::add(
                st[i + 1], V::mul(V::broadcast(layer.w[i]), st[0]));
        st[0] = new0;
    }

    for (uint32_t r = 0; r < half; ++r)
        fullRound(half + rp + r);

    for (uint32_t i = 0; i < t; ++i)
        st[i].scatter(states, i);
}

/**
 * out[k] = sum over j < n of row[j] * states[k][j] through V::dot; the
 * body of the fpDotBatch4* test entry points.
 */
template <typename V>
inline void
fpDotBatch4Impl(const Fp *row, const PoseidonState *states, size_t n,
                Fp *out)
{
    V x[PoseidonConfig::width];
    for (size_t j = 0; j < n; ++j)
        x[j] = V::gather(states, j);
    PoseidonState sums[kSimdBatchWidth];
    V::dot(row, x, n).scatter(sums, 0);
    for (size_t k = 0; k < kSimdBatchWidth; ++k)
        out[k] = sums[k][0];
}

} // namespace unizk

#endif // UNIZK_HASH_POSEIDON_BATCH_H
