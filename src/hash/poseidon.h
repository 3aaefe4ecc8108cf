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
 * The CPU permutation goes one step further: the PreMDSMatrix follows
 * the last first-half full round's MDS with only a constant add in
 * between, so both collapse into one dense layer F = PreMDS * MDS plus
 * the constant f = PreMDS * preConstants. A permutation runs 8 dense
 * layers, not 9. (The simulator still maps the separate pre-partial
 * pass, as UniZK's hardware runs it.)
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
#include "field/goldilocks_simd.h"
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
    /** row split into dot() limbs, for the batch kernels. */
    std::array<FpLimbs, PoseidonConfig::width> rowLimbs;
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
     * Optimized permutation per Algorithm 1: full rounds, then 22
     * partial rounds each doing sbox(state[0]), scalar constant add,
     * sparse MDS. The PrePartialRound (constant add + dense
     * PreMDSMatrix) is folded into the last first-half full round:
     * S-boxes, the fused dense layer fusedFlat(), then fusedConstants().
     */
    void permute(PoseidonState &state) const;

    /**
     * Permute @p n independent states in place, advancing them in
     * groups of kSimdBatchWidth through the SIMD backend selected by
     * activeSimdLevel() (field/goldilocks_simd.h). On AVX2 a ragged
     * tail of 2-3 states runs as one zero-padded group; otherwise the
     * tail falls back to scalar permute().
     *
     * Only output lanes [lo, hi) are computed: the last dense layer
     * runs just those rows, and the other lanes are unspecified on
     * return. A sponge states the lanes it reads next (the digest, or
     * what the next absorption does not overwrite). Lanes in the range
     * are bit-identical to scalar permute() at every dispatch level, so
     * callers may batch freely without affecting proof bytes.
     */
    void permuteBatch(PoseidonState *states, size_t n, uint32_t lo = 0,
                      uint32_t hi = PoseidonConfig::width) const;

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

    /**
     * Algorithm 1's dense matrix before the partial rounds. The
     * permutations apply it only through fusedFlat().
     */
    const FpMatrix &preMdsMatrix() const { return pre_matrix; }

    /** Flat row-major MDS matrix (width*width). */
    const Fp *mdsFlat() const { return mds_flat.data(); }

    /** Flat row-major F = PreMDSMatrix * MDS: the dense layer of round
     *  halfFullRounds - 1. */
    const Fp *fusedFlat() const { return fused_flat.data(); }

    /**
     * mdsFlat() / fusedFlat() split into dot() limbs once, at
     * construction, for the batch kernels.
     * @{
     */
    const FpLimbs *mdsLimbs() const { return mds_limbs.data(); }
    const FpLimbs *fusedLimbs() const { return fused_limbs.data(); }
    /** @} */

    /** f = PreMDSMatrix * (Algorithm 1's pre-partial constants),
     *  canonical, added after the fused dense layer. */
    const PoseidonState &fusedConstants() const { return fused_constants; }

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

    /** ARC + S-box on every lane, then the dense layer @p matrix. */
    void fullRound(PoseidonState &state, uint32_t round,
                   const Fp *matrix) const;

    FpMatrix mds;
    /** Flat row-major copy of the MDS matrix for the hot path. */
    std::array<Fp, PoseidonConfig::width * PoseidonConfig::width>
        mds_flat{};
    std::vector<std::array<Fp, PoseidonConfig::width>> arc;

    // Derived optimized-form parameters.
    FpMatrix pre_matrix;
    std::array<Fp, PoseidonConfig::width * PoseidonConfig::width>
        fused_flat{};
    PoseidonState fused_constants;
    std::array<Fp, PoseidonConfig::partialRounds> partial_constants;
    std::array<SparseMdsLayer, PoseidonConfig::partialRounds> sparse_layers;

    std::array<FpLimbs, PoseidonConfig::width * PoseidonConfig::width>
        mds_limbs{};
    std::array<FpLimbs, PoseidonConfig::width * PoseidonConfig::width>
        fused_limbs{};
};

} // namespace unizk

#endif // UNIZK_HASH_POSEIDON_H
