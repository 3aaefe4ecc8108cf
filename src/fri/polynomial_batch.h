/**
 * @file
 * A committed batch of polynomials: coefficient form plus a Merkle tree
 * over the low-degree extension, with leaves holding the values of all
 * polynomials at one LDE point, the leaf of Figure 1 step 3 in the
 * paper.
 *
 * Both forms are flat, one polynomial after another: the coefficients
 * a count x n buffer, and the LDE, the batch's only copy of its
 * evaluations, a column-major buffer with each column in bit-reversed
 * order so that FRI folding pairs (x, -x) sit in adjacent leaves, read
 * in place by the Merkle tree, the queries and the quotients
 * (DESIGN.md §6.11).
 */

#ifndef UNIZK_FRI_POLYNOMIAL_BATCH_H
#define UNIZK_FRI_POLYNOMIAL_BATCH_H

#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "field/extension.h"
#include "fri/fri_config.h"
#include "merkle/merkle_tree.h"
#include "poly/polynomial.h"
#include "trace/prover_context.h"

namespace unizk {

class PolynomialBatch
{
  public:
    /**
     * Commit to @p count polynomials given by their evaluations over the
     * size-n subgroup H (value form, natural order), polynomial k at
     * values[k n, (k + 1) n). Runs iNTT^NN in place on @p values, which
     * become the coefficients, then the coset LDE and Merkle
     * construction.
     */
    static PolynomialBatch fromValues(std::vector<Fp> values, size_t n,
                                      size_t count, const FriConfig &cfg,
                                      const ProverContext &ctx,
                                      const std::string &label);

    /**
     * Commit to @p count polynomials in coefficient form: polynomial k
     * has the coefficients coeffs[k n, (k + 1) n) (a quotient's chunks).
     * Adopts @p coeffs, truncated to count * n values.
     */
    static PolynomialBatch
    fromCoefficients(std::vector<Fp> coeffs, size_t n, size_t count,
                     const FriConfig &cfg, const ProverContext &ctx,
                     const std::string &label);

    /** Degree bound n (power of two). */
    size_t degreeBound() const { return n_; }

    size_t polyCount() const { return coeffs_.size() / n_; }

    /** LDE domain size n * blowup. */
    size_t ldeSize() const { return n_ << cfg_.blowupBits; }

    const MerkleCap &cap() const { return tree_->cap(); }

    const MerkleTree &tree() const { return *tree_; }

    /** The degreeBound() coefficients of polynomial @p i. */
    const Fp *coefficients(size_t i) const { return coeffs_.data() + i * n_; }

    /** Polynomial @p poly's LDE, ldeSize() values, bit-reversed order. */
    const Fp *
    ldeColumn(size_t poly) const
    {
        return lde_.get() + poly * ldeSize();
    }

    /** Value of polynomial @p poly at bit-reversed LDE index @p index. */
    Fp
    ldeValue(size_t poly, size_t index) const
    {
        return ldeColumn(poly)[index];
    }

    /** The LDE as Merkle leaves: leaf i is every polynomial at i. */
    LeafView
    leafView() const
    {
        return LeafView::columnMajor(lde_.get(), polyCount(), ldeSize());
    }

    /** Bytes held: coefficients, the flat LDE and the tree's digests. */
    size_t byteSize() const;

    /**
     * Evaluate all polynomials at @p z through evalEachExt (one shared
     * power table of z, two fpDot calls per polynomial).
     */
    std::vector<Fp2> evalAllExt(Fp2 z) const;

  private:
    PolynomialBatch(std::vector<Fp> coeffs, size_t n, const FriConfig &cfg,
                    const ProverContext &ctx, const std::string &label);

    struct RawDelete // the LDE's uninitialized storage
    {
        void operator()(Fp *p) const { ::operator delete(p); }
    };

    std::vector<Fp> coeffs_;
    size_t n_;
    FriConfig cfg_;
    std::unique_ptr<Fp, RawDelete> lde_;
    std::unique_ptr<MerkleTree> tree_;
};

} // namespace unizk

#endif // UNIZK_FRI_POLYNOMIAL_BATCH_H
