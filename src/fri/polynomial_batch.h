/**
 * @file
 * A committed batch of polynomials: coefficient form plus a Merkle tree
 * over the low-degree extension, with leaves holding the values of all
 * polynomials at one LDE point (index-major), exactly the leaf layout
 * of Figure 1 step 3 in the paper.
 *
 * LDE values are stored in bit-reversed index order so that FRI folding
 * pairs (x, -x) sit in adjacent leaves.
 */

#ifndef UNIZK_FRI_POLYNOMIAL_BATCH_H
#define UNIZK_FRI_POLYNOMIAL_BATCH_H

#include <cstdint>
#include <memory>
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
     * Commit to polynomials given by their evaluations over the size-n
     * subgroup H (value form, natural order). Performs iNTT^NN per
     * polynomial, then the coset LDE and Merkle construction.
     */
    static PolynomialBatch fromValues(std::vector<std::vector<Fp>> values,
                                      const FriConfig &cfg,
                                      const ProverContext &ctx,
                                      const std::string &label);

    /** Commit to polynomials already in coefficient form (length n). */
    static PolynomialBatch
    fromCoefficients(std::vector<std::vector<Fp>> coeffs,
                     const FriConfig &cfg, const ProverContext &ctx,
                     const std::string &label);

    /** Degree bound n (power of two). */
    size_t degreeBound() const { return n_; }

    size_t polyCount() const { return coeffs_.size(); }

    /** LDE domain size n * blowup. */
    size_t ldeSize() const { return n_ << cfg_.blowupBits; }

    const MerkleCap &cap() const { return tree_->cap(); }

    const MerkleTree &tree() const { return *tree_; }

    /** Coefficients of polynomial @p i. */
    const std::vector<Fp> &coefficients(size_t i) const
    {
        return coeffs_[i];
    }

    /**
     * Value of polynomial @p poly at bit-reversed LDE index @p index
     * (i.e. the contents of leaf @p index).
     */
    Fp
    ldeValue(size_t poly, size_t index) const
    {
        return tree_->leaf(index)[poly];
    }

    /** Evaluate polynomial @p i at an extension point (Horner). */
    Fp2 evalExt(size_t i, Fp2 z) const;

    /**
     * Evaluate all polynomials at @p z through evalEachExt (one shared
     * power table of z, two fpDot calls per polynomial).
     */
    std::vector<Fp2> evalAllExt(Fp2 z) const;

  private:
    PolynomialBatch(std::vector<std::vector<Fp>> coeffs,
                    const FriConfig &cfg, const ProverContext &ctx,
                    const std::string &label);

    std::vector<std::vector<Fp>> coeffs_;
    size_t n_;
    FriConfig cfg_;
    std::unique_ptr<MerkleTree> tree_;
};

} // namespace unizk

#endif // UNIZK_FRI_POLYNOMIAL_BATCH_H
