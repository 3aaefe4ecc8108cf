/**
 * @file
 * Batched FRI polynomial commitment opening (Fast Reed-Solomon IOP of
 * Proximity), the PCS used by both Plonky2 and Starky (paper Fig. 1,
 * right).
 *
 * Protocol outline:
 *  1. All committed polynomials are batched with powers of a challenge
 *     alpha into B(X); the openings at each point z_j give the DEEP
 *     quotient G(X) = sum_j alpha_j * (B(X) - B(z_j)) / (X - z_j),
 *     which is low-degree iff every claimed opening is correct.
 *  2. Commit phase: G is committed and repeatedly folded in half with
 *     verifier challenges (arity 2), each folded layer committed, until
 *     the residual polynomial is short enough to send in the clear.
 *  3. Proof-of-work grinding.
 *  4. Query phase: random domain positions are opened through all
 *     layers; the verifier checks Merkle paths, recomputes G at the
 *     query point from the initial openings, and checks every folding
 *     step down to the final polynomial.
 */

#ifndef UNIZK_FRI_FRI_H
#define UNIZK_FRI_FRI_H

#include <cstdint>
#include <vector>

#include "fri/polynomial_batch.h"
#include "hash/challenger.h"

namespace unizk {

/** One opened (pair, path) in a folded layer. */
struct FriLayerOpening
{
    std::array<Fp2, 2> pair;
    MerkleProof proof;
};

/** Opened leaf of an initial (polynomial batch) tree. */
struct FriInitialOpening
{
    std::vector<Fp> values;
    MerkleProof proof;
};

/** Everything opened for one query index. */
struct FriQueryRound
{
    std::vector<FriInitialOpening> initial; ///< one per batch
    std::vector<FriLayerOpening> layers;    ///< one per folded layer
};

struct FriProof
{
    std::vector<MerkleCap> layerCaps;
    std::vector<Fp2> finalPoly; ///< coefficients, low to high
    uint64_t powNonce = 0;
    std::vector<FriQueryRound> queries;

    /** Proof size in bytes (for Table 5 style reporting). */
    size_t byteSize() const;
};

/**
 * Proof-of-work check shared by prover and verifier: the first digest
 * element of hashNoPad({challenge, Fp(nonce)}) has @p bits leading zero
 * bits. Always true for bits == 0.
 */
bool powValid(Fp challenge, uint64_t nonce, uint32_t bits);

/**
 * Grinding schedule: the first block holds kPowFirstBlock nonces and
 * each later block twice as many, up to kPowMaxBlock. Small first
 * blocks keep cheap grinds cheap (an 8-bit grind needs ~256 hashes);
 * the cap bounds the overshoot past the answer on long ones.
 * @{
 */
constexpr uint64_t kPowFirstBlock = 64;
constexpr uint64_t kPowMaxBlock = 4096;
/** @} */

/** Outcome of powGrind. */
struct PowGrindResult
{
    uint64_t nonce = 0;  ///< smallest nonce with powValid
    uint64_t hashes = 0; ///< nonces hashed, block overshoot included
};

/**
 * Find the smallest nonce for which powValid(challenge, nonce, bits)
 * holds -- exactly what a serial loop from 0 returns. Nonces are hashed
 * in blocks, each block one parallelFor region whose chunks push
 * kSimdBatchWidth states at a time through Poseidon::permuteBatch; the
 * answer is the smallest valid nonce of the first block holding one, so
 * it is independent of thread count, SIMD level, and chunking.
 */
PowGrindResult powGrind(Fp challenge, uint32_t bits);

/**
 * The batch combination B = sum_k alpha^k * v_k of base-field values v,
 * the concatenation of one row per committed batch (a leaf of each
 * batch tree, or each batch's opened values at a query). The alpha
 * powers are split into their two Fp limbs once, at construction, so
 * each row costs one fpDot per limb instead of an Fp2 x Fp product per
 * term. friProve's B(x) at every LDE point and friVerify's B(x) at
 * every query both go through combine(), so prover and verifier share
 * one formula.
 */
class DeepCombination
{
  public:
    /** Powers alpha^0 .. alpha^(m-1); rows may cover at most m terms. */
    explicit DeepCombination(const std::vector<Fp2> &alpha_pows);

    /**
     * B over the rows row_at(0) .. row_at(count - 1), concatenated in
     * order; row_at(r) returns a const std::vector<Fp> &. Allocates
     * nothing, so pool workers can call it per point.
     */
    template <typename RowAt>
    Fp2
    combine(RowAt row_at, size_t count) const
    {
        // (sum_k alpha^k * v_k).limb(l) = sum_k alpha^k.limb(l) * v_k
        // for base-field v_k: one lazily reduced dot per limb and row.
        Fp c0, c1;
        size_t k = 0;
        for (size_t r = 0; r < count; ++r) {
            const std::vector<Fp> &row = row_at(r);
            unizk_assert(k + row.size() <= limb0_.size(),
                         "DEEP combination rows exceed the alpha powers");
            c0 += fpDot(limb0_.data() + k, row.data(), row.size());
            c1 += fpDot(limb1_.data() + k, row.data(), row.size());
            k += row.size();
        }
        return Fp2(c0, c1);
    }

  private:
    std::vector<Fp> limb0_;
    std::vector<Fp> limb1_;
};

/**
 * Prove the openings of all polynomials in @p batches at each point of
 * @p points. @p openings[j][k] must equal the k-th polynomial's value at
 * points[j], where k runs over all batches' polynomials in order; they
 * must already have been observed into @p challenger by the caller.
 */
FriProof friProve(const std::vector<const PolynomialBatch *> &batches,
                  const std::vector<Fp2> &points,
                  const std::vector<std::vector<Fp2>> &openings,
                  Challenger &challenger, const FriConfig &cfg,
                  const ProverContext &ctx);

/** Verifier-side view of one committed batch. */
struct FriBatchInfo
{
    MerkleCap cap;
    size_t polyCount = 0;
};

/**
 * True iff @p degree_bound is a power of two and its LDE domain of
 * degree_bound << cfg.blowupBits points is a subgroup of Goldilocks
 * (order at most 2^Fp::twoAdicity). Verifiers reject a proof whose row
 * count fails this instead of asking for a root of unity that does not
 * exist.
 */
bool friDomainFits(size_t degree_bound, const FriConfig &cfg);

/**
 * Verify a FRI opening proof. @p degree_bound is the common degree
 * bound n of the committed polynomials; the challenger must be in the
 * same state as the prover's was when friProve was called.
 *
 * All query indices are drawn before any query is checked, then chunks
 * of queries run on the pool: each chunk verifies its Merkle paths one
 * tree at a time through MerkleTree::verifyBatch, then each query's
 * DEEP quotient, fold chain and final-polynomial evaluation. The result
 * is the AND of every check, so it does not depend on the chunking.
 */
bool friVerify(const std::vector<FriBatchInfo> &batches,
               size_t degree_bound, const std::vector<Fp2> &points,
               const std::vector<std::vector<Fp2>> &openings,
               const FriProof &proof, Challenger &challenger,
               const FriConfig &cfg);

} // namespace unizk

#endif // UNIZK_FRI_FRI_H
