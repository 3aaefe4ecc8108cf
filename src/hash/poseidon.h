/**
 * @file
 * The Poseidon permutation over the Goldilocks field, in both its naive
 * (textbook) form and the optimized form of the paper's Algorithm 1.
 *
 * Structure (matching Plonky2 and the paper):
 *  - state width t = 12 elements,
 *  - S-box x^7,
 *  - 8 full rounds (4 before, 4 after) and 22 partial rounds,
 *  - a dense t x t MDS linear layer.
 *
 * The *optimized* form replaces the dense MDS multiplication in each
 * partial round with one dense "PreMDSMatrix" applied once, plus one
 * sparse matrix per partial round whose non-zeros lie only in the first
 * row, first column, and diagonal -- exactly the (u, v, E) decomposition
 * the UniZK partial-round mapping exploits (paper Fig. 5b). The sparse
 * factorization and the equivalent round constants are *derived* here
 * from the naive parameters, and the test suite checks the two forms
 * agree on random inputs.
 *
 * Round constants are generated deterministically (splitmix64 rejection
 * sampling) and the MDS matrix is a Cauchy matrix, which is provably MDS
 * over a prime field. These differ from Plonky2's published constants --
 * a documented substitution (DESIGN.md): the computation *shape*, which
 * is what the accelerator sees, is identical.
 */

#ifndef UNIZK_HASH_POSEIDON_H
#define UNIZK_HASH_POSEIDON_H

#include <array>
#include <cstdint>
#include <vector>

#include "field/goldilocks.h"
#include "field/matrix.h"
#include "hash/poseidon_params.h"

namespace unizk {

/** A 12-element Poseidon state. */
using PoseidonState = std::array<Fp, PoseidonConfig::width>;

/**
 * One partial round's sparse linear layer [[m00, v^T], [w, I]]:
 * out[0] = m00*s[0] + sum v[j]*s[j+1];  out[i] = w[i-1]*s[0] + s[i].
 */
struct SparseMdsLayer
{
    /** First row [m00, v^T], contiguous so out[0] is one dot product. */
    std::array<Fp, PoseidonConfig::width> row;
    std::array<Fp, PoseidonConfig::width - 1> w;
};

/**
 * The Poseidon permutation with lazily derived optimized parameters.
 * Construction performs the sparse factorization once; instances are
 * immutable afterwards and cheap to share by const reference.
 */
class Poseidon
{
  public:
    Poseidon();

    /** Process-wide shared instance (parameters are fixed). */
    static const Poseidon &instance();

    /** Textbook permutation: ARC + S-box + dense MDS every round. */
    void permuteNaive(PoseidonState &state) const;

    /**
     * Optimized permutation per Algorithm 1: full rounds, then
     * PrePartialRound (constant add + dense PreMDSMatrix), then 22
     * partial rounds each doing sbox(state[0]), scalar constant add,
     * sparse MDS.
     */
    void permute(PoseidonState &state) const;

    /**
     * Permute @p n independent states in place, advancing them in
     * groups of kSimdBatchWidth through the SIMD backend selected by
     * activeSimdLevel() (goldilocks_simd.h). On AVX2 a ragged tail of
     * 2-3 states runs as one zero-padded group; otherwise the tail
     * falls back to scalar permute(). Bit-identical to n scalar permute() calls at
     * every dispatch level, so callers may batch freely without
     * affecting proof bytes.
     */
    void permuteBatch(PoseidonState *states, size_t n) const;

    /** x^7 S-box. */
    static Fp sbox(Fp x);

    /** The dense MDS matrix (width x width). */
    const FpMatrix &mdsMatrix() const { return mds; }

    /** Round constants, [round][lane]. */
    const std::vector<std::array<Fp, PoseidonConfig::width>> &
    roundConstants() const
    {
        return arc;
    }

    /** Dense matrix applied once before the partial rounds. */
    const FpMatrix &preMdsMatrix() const { return pre_matrix; }

    /** Flat row-major MDS matrix (width*width), for the batch kernels. */
    const Fp *mdsFlat() const { return mds_flat.data(); }

    /** Flat row-major PreMDSMatrix, for the batch kernels. */
    const Fp *preFlat() const { return pre_flat.data(); }

    /** Constant vector added before PreMDSMatrix. */
    const PoseidonState &prePartialConstants() const { return pre_constants; }

    /** Per-partial-round scalar constants (added after the S-box). */
    const std::array<Fp, PoseidonConfig::partialRounds> &
    partialConstants() const
    {
        return partial_constants;
    }

    /** Per-partial-round sparse layers. */
    const std::array<SparseMdsLayer, PoseidonConfig::partialRounds> &
    sparseLayers() const
    {
        return sparse_layers;
    }

  private:
    void generateConstants();
    void deriveOptimizedForm();

    void fullRound(PoseidonState &state, uint32_t round) const;
    void denseMdsApply(PoseidonState &state) const;

    FpMatrix mds;
    /** Flat row-major copy of the MDS matrix for the hot path. */
    std::array<Fp, PoseidonConfig::width * PoseidonConfig::width>
        mds_flat{};
    std::vector<std::array<Fp, PoseidonConfig::width>> arc;

    // Derived optimized-form parameters.
    FpMatrix pre_matrix;
    /** Flat copy of pre_matrix for the hot path. */
    std::array<Fp, PoseidonConfig::width * PoseidonConfig::width>
        pre_flat{};
    PoseidonState pre_constants;
    std::array<Fp, PoseidonConfig::partialRounds> partial_constants;
    std::array<SparseMdsLayer, PoseidonConfig::partialRounds> sparse_layers;
};

} // namespace unizk

#endif // UNIZK_HASH_POSEIDON_H
