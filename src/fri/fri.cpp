#include "fri/fri.h"

#include <algorithm>
#include <atomic>

#include "common/bits.h"
#include "common/thread_pool.h"
#include "field/goldilocks_simd.h"
#include "ntt/ntt.h"
#include "obs/obs.h"
#include "poly/polynomial.h"

namespace unizk {

namespace {

/**
 * The sponge state hashNoPad({challenge, Fp(nonce)}) permutes: one
 * overwrite-mode chunk over a zero state. Prover and verifier both
 * build PoW states here, so the two cannot drift apart.
 */
PoseidonState
powState(Fp challenge, uint64_t nonce)
{
    PoseidonState state{};
    state[0] = challenge;
    state[1] = Fp(nonce);
    return state;
}

/** The PoW condition on a permuted powState (digest element 0). */
bool
powDigestValid(const PoseidonState &permuted, uint32_t bits)
{
    return fpHighBits(permuted[0], bits) == 0;
}

/** Nonces per parallelFor chunk: a 64-nonce block splits four ways. */
constexpr size_t kPowGrain = 16;

/** Fold a bit-reversed evaluation vector in half with challenge beta. */
std::vector<Fp2>
foldLayer(const std::vector<Fp2> &cur, Fp2 beta, Fp shift)
{
    const size_t half_size = cur.size() / 2;
    // y[i] is the point of the *even* child of pair i: shift * w^j where
    // w generates the full current domain and j bit-reverses i over
    // log(half) bits.
    const uint32_t log_half = log2Exact(half_size);
    const Fp w = Fp::primitiveRootOfUnity(log_half + 1);
    std::vector<Fp> y(half_size);
    Fp cur_point = shift;
    for (size_t j = 0; j < half_size; ++j) {
        y[reverseBits(j, log_half)] = cur_point;
        cur_point *= w;
    }
    const Fp inv2 = Fp(2).inverse();

    std::vector<Fp> denom(half_size);
    parallelFor(0, half_size, /*grain=*/1024, [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i)
            denom[i] = y[i].doubled();
    });
    batchInverse(denom);

    std::vector<Fp2> next(half_size);
    parallelFor(0, half_size, /*grain=*/1024, [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
            const Fp2 v0 = cur[2 * i];
            const Fp2 v1 = cur[2 * i + 1];
            const Fp2 even = (v0 + v1) * inv2;
            const Fp2 odd = (v0 - v1) * denom[i];
            next[i] = even + beta * odd;
        }
    });
    return next;
}

/** Pack an Fp2 pair into a 4-element Merkle leaf. */
std::vector<Fp>
packPair(const Fp2 &a, const Fp2 &b)
{
    return {a.limb(0), a.limb(1), b.limb(0), b.limb(1)};
}

/** Flattened count of polynomials across batches. */
size_t
totalPolyCount(const std::vector<FriBatchInfo> &batches)
{
    size_t total = 0;
    for (const auto &b : batches)
        total += b.polyCount;
    return total;
}

/** alpha^0 .. alpha^(count-1). */
std::vector<Fp2>
alphaPowers(Fp2 alpha, size_t count)
{
    std::vector<Fp2> pows(count);
    Fp2 cur = Fp2::one();
    for (size_t i = 0; i < count; ++i) {
        pows[i] = cur;
        cur *= alpha;
    }
    return pows;
}

/** Combined openings B(z_j) = sum_k alpha^k * openings[j][k]. */
std::vector<Fp2>
combinedOpenings(const std::vector<std::vector<Fp2>> &openings,
                 const std::vector<Fp2> &alpha_pows, size_t num_polys)
{
    std::vector<Fp2> bz(openings.size());
    for (size_t j = 0; j < openings.size(); ++j) {
        unizk_assert(openings[j].size() == num_polys,
                     "opening count mismatch");
        Fp2 acc;
        for (size_t k = 0; k < num_polys; ++k)
            acc += alpha_pows[k] * openings[j][k];
        bz[j] = acc;
    }
    return bz;
}

/** Observe the openings row by row, limb 0 then limb 1 of each value. */
void
observeOpenings(Challenger &challenger,
                const std::vector<std::vector<Fp2>> &openings)
{
    for (const auto &row : openings)
        for (const Fp2 &v : row) {
            challenger.observe(v.limb(0));
            challenger.observe(v.limb(1));
        }
}

} // namespace

void
recordChallenger(Challenger &challenger, const ProverContext &ctx,
                 const char *label)
{
    const size_t perms = challenger.takePermutations();
    if (perms > 0)
        ctx.record(HashKernel{perms}, std::string("challenger: ") + label);
}

DeepCombination::DeepCombination(const std::vector<Fp2> &alpha_pows)
    : limb0_(alpha_pows.size()), limb1_(alpha_pows.size())
{
    for (size_t k = 0; k < alpha_pows.size(); ++k) {
        limb0_[k] = alpha_pows[k].limb(0);
        limb1_[k] = alpha_pows[k].limb(1);
    }
}

bool
powValid(Fp challenge, uint64_t nonce, uint32_t bits)
{
    if (bits == 0)
        return true;
    PoseidonState state = powState(challenge, nonce);
    Poseidon::instance().permute(state);
    return powDigestValid(state, bits);
}

PowGrindResult
powGrind(Fp challenge, uint32_t bits)
{
    PowGrindResult result;
    if (bits == 0)
        return result;
    const Poseidon &poseidon = Poseidon::instance();
    // valid[i] answers nonce start + i; chunks write disjoint slots.
    std::vector<uint8_t> valid(kPowMaxBlock);
    uint64_t start = 0;
    for (uint64_t block = kPowFirstBlock;;
         block = std::min(2 * block, kPowMaxBlock)) {
        parallelFor(0, block, kPowGrain, [&](size_t lo, size_t hi) {
            PoseidonState states[kSimdBatchWidth];
            for (size_t i = lo; i < hi; i += kSimdBatchWidth) {
                const size_t m = std::min(kSimdBatchWidth, hi - i);
                for (size_t k = 0; k < m; ++k)
                    states[k] = powState(challenge, start + i + k);
                // The PoW condition reads digest element 0 only.
                poseidon.permuteBatch(states, m, 0, 1);
                for (size_t k = 0; k < m; ++k)
                    valid[i + k] = powDigestValid(states[k], bits);
            }
        });
        result.hashes += block;
        const auto end = valid.begin() + static_cast<ptrdiff_t>(block);
        const auto hit = std::find(valid.begin(), end, uint8_t{1});
        if (hit != end) {
            result.nonce =
                start + static_cast<uint64_t>(hit - valid.begin());
            return result;
        }
        start += block;
    }
}

size_t
FriProof::byteSize() const
{
    size_t bytes = sizeof(powNonce);
    for (const auto &cap : layerCaps)
        bytes += cap.size() * HashOut::byteSize();
    bytes += finalPoly.size() * 2 * sizeof(uint64_t);
    for (const auto &q : queries) {
        for (const auto &init : q.initial) {
            bytes += init.values.size() * sizeof(uint64_t);
            bytes += init.proof.byteSize();
        }
        for (const auto &layer : q.layers) {
            bytes += 4 * sizeof(uint64_t);
            bytes += layer.proof.byteSize();
        }
    }
    return bytes;
}

FriOpenedProof
friProve(const std::vector<const PolynomialBatch *> &batches,
         const std::vector<Fp2> &points, Challenger &challenger,
         const FriConfig &cfg, const ProverContext &ctx, const char *span)
{
    UNIZK_SPAN("fri/prove");
    unizk_assert(!batches.empty(), "no batches to open");
    const size_t n = batches[0]->degreeBound();
    for (const auto *b : batches) {
        unizk_assert(b->degreeBound() == n,
                     "all batches must share a degree bound");
    }
    const size_t domain = n << cfg.blowupBits;

    size_t num_polys = 0;
    for (const auto *b : batches)
        num_polys += b->polyCount();

    FriOpenedProof out;
    std::vector<std::vector<Fp2>> &openings = out.openings;
    openings.resize(points.size());
    {
        const KernelScope scope(ctx, KernelClass::Polynomial, span);
        for (size_t j = 0; j < points.size(); ++j)
            for (const auto *batch : batches)
                for (const Fp2 &v : batch->evalAllExt(points[j]))
                    openings[j].push_back(v);
    }
    ctx.record(VecOpKernel{n, static_cast<uint32_t>(num_polys), 1, 4, 0},
               "openings: evaluate at zeta, w*zeta");
    observeOpenings(challenger, openings);
    recordChallenger(challenger, ctx, "openings");

    const Fp2 alpha = challenger.challengeExt();
    const auto alpha_pows = alphaPowers(alpha, num_polys + points.size());

    FriProof &proof = out.proof;

    // ---- DEEP quotient G over the LDE domain (bit-reversed order). ----
    std::vector<Fp2> g_values(domain);
    {
        const KernelScope scope(ctx, KernelClass::Polynomial,
                                "fri/deep-quotient");

        // B(x) block by block: blocks write disjoint slots with exact
        // arithmetic, so the result is thread-count independent.
        const DeepCombination combination(alpha_pows);
        std::vector<Fp2> b_values(domain);
        constexpr size_t kBlock = DeepCombination::kBlock;
        parallelFor(0, domain, kBlock, [&](size_t lo, size_t hi) {
            for (size_t i = lo; i < hi; i += kBlock)
                combination.combine(
                    [&](size_t b) { return batches[b]->leafView(); },
                    batches.size(), i, std::min(kBlock, hi - i),
                    &b_values[i]);
        });

        const auto b_z = combinedOpenings(openings, alpha_pows, num_polys);
        const auto xs = bitReversedCosetPoints(domain, cfg.shift());
        for (size_t j = 0; j < points.size(); ++j) {
            std::vector<Fp2> denom(domain);
            parallelFor(0, domain, /*grain=*/1024,
                        [&](size_t lo, size_t hi) {
                            for (size_t i = lo; i < hi; ++i)
                                denom[i] = Fp2(xs[i]) - points[j];
                        });
            batchInverseExt(denom);
            const Fp2 scale = alpha_pows[num_polys + j];
            parallelFor(0, domain, /*grain=*/1024,
                        [&](size_t lo, size_t hi) {
                            for (size_t i = lo; i < hi; ++i)
                                g_values[i] += scale *
                                               (b_values[i] - b_z[j]) *
                                               denom[i];
                        });
        }
    }
    ctx.record(VecOpKernel{domain,
                           static_cast<uint32_t>(num_polys + points.size()),
                           1, static_cast<uint32_t>(
                               2 * (num_polys + 6 * points.size())),
                           0},
               "FRI: DEEP quotient");

    // ---- Commit phase: fold until the residual is short. ----
    std::vector<std::vector<Fp2>> layer_values;
    std::vector<MerkleTree> layer_trees;
    std::vector<Fp2> cur = std::move(g_values);
    size_t poly_len = n;
    Fp layer_shift = cfg.shift();
    while (poly_len > cfg.finalPolyLen) {
        // Commit the current layer as (pair) leaves.
        const size_t pairs = cur.size() / 2;
        const uint32_t cap_h =
            std::min<uint32_t>(cfg.capHeight, log2Exact(pairs));
        {
            const KernelScope scope(ctx, KernelClass::MerkleTree,
                                    "fri/layer-commit");
            // Pair i's packPair leaf is limbs [4i, 4i + 4).
            std::vector<Fp> limbs;
            limbs.reserve(2 * cur.size());
            for (const Fp2 &v : cur)
                limbs.insert(limbs.end(), {v.limb(0), v.limb(1)});
            layer_trees.emplace_back(
                LeafView::rowMajor(limbs.data(), 4, pairs), cap_h);
        }
        ctx.record(MerkleKernel{pairs, 4, cap_h}, "FRI: layer commit");
        for (const auto &digest : layer_trees.back().cap())
            challenger.observe(digest);

        const Fp2 beta = challenger.challengeExt();
        layer_values.push_back(std::move(cur));
        {
            const KernelScope scope(ctx, KernelClass::Polynomial, "fri/fold");
            cur = foldLayer(layer_values.back(), beta, layer_shift);
        }
        ctx.record(VecOpKernel{cur.size(), 2, 1, 12, 0}, "FRI: fold");
        layer_shift = layer_shift.squared();
        poly_len /= 2;
    }

    // ---- Final polynomial: coset-iNTT of the residual layer. ----
    {
        const KernelScope scope(ctx, KernelClass::Ntt, "fri/final-poly-intt");
        bitReversePermute(cur); // back to natural order for the iNTT
        cosetInttNNExt(cur, layer_shift);
    }
    ctx.record(NttKernel{log2Exact(cur.size()), 2, /*inverse=*/true,
                         /*coset=*/true, /*bitrevOutput=*/false,
                         PolyLayout::PolyMajor},
               "FRI: final poly iNTT");
    for (size_t i = poly_len; i < cur.size(); ++i) {
        unizk_assert(cur[i].isZero(),
                     "FRI residual polynomial exceeds degree bound");
    }
    cur.resize(poly_len);
    proof.finalPoly = cur;
    for (const auto &c : proof.finalPoly) {
        challenger.observe(c.limb(0));
        challenger.observe(c.limb(1));
    }

    // ---- Proof-of-work grinding. ----
    {
        const KernelScope scope(ctx, KernelClass::OtherHash, "fri/pow");
        const PowGrindResult pow =
            powGrind(challenger.challenge(), cfg.powBits);
        proof.powNonce = pow.nonce;
        // Iterations stay "smallest nonce + 1" (what a serial grinder
        // hashes), so the kernel trace and simulated cycles do not
        // depend on the block schedule; the overshoot is counted apart.
        UNIZK_COUNTER_ADD("fri.pow_iterations", pow.nonce + 1);
        UNIZK_COUNTER_ADD("fri.pow_hashes", pow.hashes);
        ctx.record(HashKernel{pow.nonce + 1}, "FRI: proof-of-work");
        challenger.observe(Fp(pow.nonce));
    }

    // ---- Query phase. ----
    for (const auto &tree : layer_trees)
        proof.layerCaps.push_back(tree.cap());
    UNIZK_SPAN("fri/queries");
    UNIZK_COUNTER_ADD("fri.queries", cfg.numQueries);
    for (uint32_t q = 0; q < cfg.numQueries; ++q) {
        const size_t idx = fpIndexBelow(challenger.challenge(), domain);
        FriQueryRound round;
        for (const auto *batch : batches) {
            FriInitialOpening open;
            open.values = batch->leafView().leaf(idx);
            open.proof = batch->tree().prove(idx);
            round.initial.push_back(std::move(open));
        }
        size_t cur_idx = idx;
        for (size_t l = 0; l < layer_trees.size(); ++l) {
            const size_t pair_idx = cur_idx >> 1;
            FriLayerOpening open;
            open.pair = {layer_values[l][2 * pair_idx],
                         layer_values[l][2 * pair_idx + 1]};
            open.proof = layer_trees[l].prove(pair_idx);
            round.layers.push_back(std::move(open));
            cur_idx = pair_idx;
        }
        proof.queries.push_back(std::move(round));
    }
    recordChallenger(challenger, ctx, "fri");
    return out;
}

bool
friDomainFits(size_t degree_bound, const FriConfig &cfg)
{
    if (!isPowerOfTwo(degree_bound))
        return false;
    const uint32_t log_n = log2Exact(degree_bound);
    return log_n <= Fp::twoAdicity &&
           cfg.blowupBits <= Fp::twoAdicity - log_n;
}

bool
friVerify(const std::vector<FriBatchInfo> &batches, size_t degree_bound,
          const std::vector<Fp2> &points,
          const std::vector<std::vector<Fp2>> &openings,
          const FriProof &proof, Challenger &challenger,
          const FriConfig &cfg)
{
    const size_t n = degree_bound;
    if (!friDomainFits(n, cfg))
        return false;
    const size_t domain = n << cfg.blowupBits;
    const size_t num_polys = totalPolyCount(batches);
    if (openings.size() != points.size())
        return false;
    for (const auto &row : openings)
        if (row.size() != num_polys)
            return false;

    // Number of folding layers the prover must have produced.
    size_t expected_layers = 0;
    {
        size_t len = n;
        while (len > cfg.finalPolyLen) {
            len /= 2;
            ++expected_layers;
        }
    }
    if (proof.layerCaps.size() != expected_layers)
        return false;
    if (proof.finalPoly.size() > std::min<size_t>(cfg.finalPolyLen, n))
        return false;
    if (proof.queries.size() != cfg.numQueries)
        return false;

    observeOpenings(challenger, openings);
    const Fp2 alpha = challenger.challengeExt();
    const auto alpha_pows = alphaPowers(alpha, num_polys + points.size());
    const auto b_z = combinedOpenings(openings, alpha_pows, num_polys);
    const DeepCombination combination(alpha_pows);

    // Replay the transcript: caps, betas, final polynomial, PoW.
    std::vector<Fp2> betas;
    for (const auto &cap : proof.layerCaps) {
        for (const auto &digest : cap)
            challenger.observe(digest);
        betas.push_back(challenger.challengeExt());
    }
    for (const auto &c : proof.finalPoly) {
        challenger.observe(c.limb(0));
        challenger.observe(c.limb(1));
    }
    const Fp pow_challenge = challenger.challenge();
    if (!powValid(pow_challenge, proof.powNonce, cfg.powBits))
        return false;
    challenger.observe(Fp(proof.powNonce));

    // The query phase only draws challenges, so drawing every index up
    // front leaves the transcript as the prover replayed it.
    std::vector<size_t> indices(cfg.numQueries);
    for (size_t &idx : indices)
        idx = fpIndexBelow(challenger.challenge(), domain);
    for (const auto &round : proof.queries) {
        if (round.initial.size() != batches.size())
            return false;
        if (round.layers.size() != expected_layers)
            return false;
        for (size_t bi = 0; bi < batches.size(); ++bi)
            if (round.initial[bi].values.size() != batches[bi].polyCount)
                return false;
    }

    const uint32_t log_domain = log2Exact(domain);
    const Fp w_domain = Fp::primitiveRootOfUnity(log_domain);
    const Fp inv2 = Fp(2).inverse();

    // The arithmetic of query q, once its Merkle paths have verified:
    // B(x) from the initial openings, the DEEP quotient at x, every
    // fold step, and the final polynomial.
    auto query_holds = [&](size_t q) {
        const FriQueryRound &round = proof.queries[q];
        const size_t idx = indices[q];
        Fp2 b_x;
        combination.combine(
            [&](size_t b) {
                const std::vector<Fp> &row = round.initial[b].values;
                return LeafView::rowMajor(row.data(), row.size(), 1);
            },
            round.initial.size(), 0, 1, &b_x);

        // DEEP quotient at the query point. A point on the domain has no
        // quotient (the prover could not have built one): reject.
        const Fp x = cfg.shift() * w_domain.pow(reverseBits(idx,
                                                            log_domain));
        Fp2 expected;
        for (size_t j = 0; j < points.size(); ++j) {
            const Fp2 denom = Fp2(x) - points[j];
            if (denom.isZero())
                return false;
            expected += alpha_pows[num_polys + j] * (b_x - b_z[j]) *
                        denom.inverse();
        }

        // Walk the folded layers.
        size_t cur_idx = idx;
        size_t cur_domain = domain;
        Fp cur_shift = cfg.shift();
        Fp cur_w = w_domain;
        for (size_t l = 0; l < expected_layers; ++l) {
            const size_t pair_idx = cur_idx >> 1;
            const auto &open = round.layers[l];
            if (open.pair[cur_idx & 1] != expected)
                return false;
            const uint32_t log_half = log2Exact(cur_domain) - 1;
            const Fp y =
                cur_shift * cur_w.pow(reverseBits(pair_idx, log_half));
            const Fp2 even = (open.pair[0] + open.pair[1]) * inv2;
            const Fp2 odd =
                (open.pair[0] - open.pair[1]) * y.doubled().inverse();
            expected = even + betas[l] * odd;

            cur_idx = pair_idx;
            cur_domain /= 2;
            cur_shift = cur_shift.squared();
            cur_w = cur_w.squared();
        }

        // Final polynomial check.
        const Fp x_final =
            cur_shift * cur_w.pow(reverseBits(cur_idx,
                                              log2Exact(cur_domain)));
        Fp2 final_eval;
        for (size_t i = proof.finalPoly.size(); i-- > 0;)
            final_eval = final_eval * Fp2(x_final) + proof.finalPoly[i];
        return final_eval == expected;
    };

    // Queries [lo, hi): each tree's paths in one verifyBatch call (the
    // initial trees at the query index, layer l's pair tree at
    // idx >> (l + 1)), then the per-query arithmetic.
    auto chunk_holds = [&](size_t lo, size_t hi) {
        const size_t m = hi - lo;
        std::vector<const std::vector<Fp> *> leaves(m);
        std::vector<const MerkleProof *> paths(m);
        for (size_t bi = 0; bi < batches.size(); ++bi) {
            for (size_t i = 0; i < m; ++i) {
                const auto &open = proof.queries[lo + i].initial[bi];
                leaves[i] = &open.values;
                paths[i] = &open.proof;
            }
            if (!MerkleTree::verifyBatch(leaves.data(), &indices[lo],
                                         paths.data(), m, batches[bi].cap,
                                         log_domain))
                return false;
        }
        std::vector<std::vector<Fp>> pair_leaves(m);
        std::vector<size_t> pair_indices(m);
        for (size_t l = 0; l < expected_layers; ++l) {
            for (size_t i = 0; i < m; ++i) {
                const auto &open = proof.queries[lo + i].layers[l];
                pair_leaves[i] = packPair(open.pair[0], open.pair[1]);
                pair_indices[i] = indices[lo + i] >> (l + 1);
                leaves[i] = &pair_leaves[i];
                paths[i] = &open.proof;
            }
            // Layer l's tree commits domain >> (l + 1) pair-leaves.
            if (!MerkleTree::verifyBatch(
                    leaves.data(), pair_indices.data(), paths.data(), m,
                    proof.layerCaps[l],
                    log_domain - 1 - static_cast<uint32_t>(l)))
                return false;
        }
        for (size_t q = lo; q < hi; ++q)
            if (!query_holds(q))
                return false;
        return true;
    };

    // Grain: two SIMD batches per chunk, so even 8- or 16-query
    // configurations hash full lanes.
    std::atomic<bool> ok{true};
    parallelFor(0, cfg.numQueries, 2 * kSimdBatchWidth,
                [&](size_t lo, size_t hi) {
                    if (ok.load(std::memory_order_relaxed) &&
                        !chunk_holds(lo, hi))
                        ok.store(false, std::memory_order_relaxed);
                });
    return ok.load(std::memory_order_relaxed);
}

} // namespace unizk
