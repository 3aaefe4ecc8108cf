/**
 * @file
 * Batched FRI polynomial commitment opening (Fast Reed-Solomon IOP of
 * Proximity), the PCS used by both Plonky2 and Starky (paper Fig. 1,
 * right).
 *
 * Protocol outline:
 *  0. Openings: every committed polynomial is evaluated at each point
 *     z_j and the values are observed into the transcript.
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
 * every committed batch's values at one point in order. The alpha
 * powers are split into their two Fp limbs once, so each term costs one
 * 128-bit product per limb. friProve's B(x) over the LDE domain and
 * friVerify's B(x) at each query (the one-point case) share combine().
 */
class DeepCombination
{
  public:
    /** Points one combine() call covers at most. */
    static constexpr size_t kBlock = 256;

    /** Powers alpha^0 .. alpha^(m-1); batches may hold at most m terms. */
    explicit DeepCombination(const std::vector<Fp2> &alpha_pows);

    /**
     * out[i] = B at point lo + i for i < count <= kBlock, where view_at(b)
     * is batch b's LeafView (leaf = point). Sweeps column by column with
     * the points as lanes, and allocates nothing.
     */
    template <typename ViewAt>
    void
    combine(ViewAt view_at, size_t batches, size_t lo, size_t count,
            Fp2 *out) const
    {
        unizk_assert(count <= kBlock, "DEEP combination block too long");
        // (sum_k alpha^k * v_k).limb(l) = sum_k alpha^k.limb(l) * v_k for
        // base-field v_k: one wrapping 128-bit sum per limb and point.
        unsigned __int128 acc0[kBlock], acc1[kBlock];
        uint64_t wraps0[kBlock], wraps1[kBlock];
        for (size_t i = 0; i < count; ++i) {
            acc0[i] = acc1[i] = 0;
            wraps0[i] = wraps1[i] = 0;
        }
        auto add = [](unsigned __int128 &acc, uint64_t &wraps, uint64_t a,
                      uint64_t v) {
            const unsigned __int128 prod = static_cast<unsigned __int128>(a) * v;
            acc += prod;
            wraps += acc < prod;
        };
        size_t k = 0;
        for (size_t b = 0; b < batches; ++b) {
            const LeafView view = view_at(b);
            unizk_assert(k + view.width <= limb0_.size(),
                         "DEEP combination terms exceed the alpha powers");
            // Two columns per pass halve the accumulator traffic; an odd
            // last column pairs with itself at weight zero.
            for (size_t p = 0; p < view.width; p += 2) {
                const bool pair = p + 1 < view.width;
                const Fp *c = view.base + p * view.elemStride;
                const Fp *d = pair ? c + view.elemStride : c;
                const uint64_t a0 = limb0_[k].value(), a1 = limb1_[k].value();
                const uint64_t b0 = pair ? limb0_[k + 1].value() : 0;
                const uint64_t b1 = pair ? limb1_[k + 1].value() : 0;
                k += pair ? 2 : 1;
                for (size_t i = 0; i < count; ++i) {
                    const size_t at = (lo + i) * view.leafStride;
                    const uint64_t v = c[at].value(), u = d[at].value();
                    add(acc0[i], wraps0[i], a0, v);
                    add(acc0[i], wraps0[i], b0, u);
                    add(acc1[i], wraps1[i], a1, v);
                    add(acc1[i], wraps1[i], b1, u);
                }
            }
        }
        for (size_t i = 0; i < count; ++i)
            out[i] = Fp2(fpReduceWide(acc0[i], wraps0[i]),
                         fpReduceWide(acc1[i], wraps1[i]));
    }

  private:
    std::vector<Fp> limb0_;
    std::vector<Fp> limb1_;
};

/**
 * Record the permutations @p challenger ran since the previous call as
 * one HashKernel labelled "challenger: <label>", or nothing if it ran
 * none. The provers call it after each challenge they draw.
 */
void recordChallenger(Challenger &challenger, const ProverContext &ctx,
                      const char *label);

/** What friProve returns: the openings it evaluated and their proof. */
struct FriOpenedProof
{
    /**
     * openings[j][k]: polynomial k at points[j], k running over every
     * batch's polynomials in batch order.
     */
    std::vector<std::vector<Fp2>> openings;
    FriProof proof;
};

/**
 * The opening round of the batches' commitment (paper Fig. 1): evaluate
 * every polynomial of @p batches at each of @p points under a
 * KernelScope named @p span, observe the openings into @p challenger
 * (row by row, each value limb 0 then limb 1), and prove them with
 * FRI. friVerify replays the same transcript from the same openings.
 */
FriOpenedProof friProve(const std::vector<const PolynomialBatch *> &batches,
                        const std::vector<Fp2> &points,
                        Challenger &challenger, const FriConfig &cfg,
                        const ProverContext &ctx, const char *span);

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
 * Verify the opening round: @p openings, one row per point of @p points
 * holding a value for every committed polynomial, are observed into
 * @p challenger as friProve observed them, and FRI must prove them.
 * Openings of any other shape are rejected. @p degree_bound is the
 * common degree bound n of the committed polynomials; the challenger
 * must be in the same state as the prover's was when friProve was
 * called.
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
