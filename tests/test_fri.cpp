/**
 * @file
 * Tests for the FRI polynomial commitment: commitment construction,
 * honest prove/verify round trips across configurations, and soundness
 * checks (tampered openings, wrong points, corrupted proofs must fail).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "fri/fri.h"
#include "field/goldilocks_simd.h"
#include "hash/hashing.h"
#include "test_common.h"

namespace unizk {
namespace {

/** @p num_polys random polynomials of @p n values each, stored flat. */
std::vector<Fp>
randomValues(size_t num_polys, size_t n, uint64_t seed)
{
    SplitMix64 rng(seed);
    std::vector<Fp> vals(num_polys * n);
    for (auto &x : vals)
        x = randomFp(rng);
    return vals;
}

/** A batch committing @p num_polys random polynomials of @p n values. */
PolynomialBatch
randomBatch(size_t num_polys, size_t n, uint64_t seed, const FriConfig &cfg,
            const ProverContext &ctx)
{
    return PolynomialBatch::fromValues(randomValues(num_polys, n, seed), n,
                                       num_polys, cfg, ctx, "t");
}

/** Everything needed to drive one honest FRI round trip. */
struct FriFixture
{
    FriConfig cfg;
    std::unique_ptr<PolynomialBatch> batch_a;
    std::unique_ptr<PolynomialBatch> batch_b;
    std::vector<Fp2> points;
    std::vector<std::vector<Fp2>> openings;
    FriProof proof;

    FriFixture(size_t n, size_t polys_a, size_t polys_b, FriConfig config)
        : cfg(config)
    {
        ProverContext ctx;
        batch_a = std::make_unique<PolynomialBatch>(
            randomBatch(polys_a, n, 1, cfg, ctx));
        batch_b = std::make_unique<PolynomialBatch>(
            randomBatch(polys_b, n, 2, cfg, ctx));

        Challenger challenger;
        const Fp2 zeta = challenger.challengeExt();
        const Fp g = Fp::primitiveRootOfUnity(log2Exact(n));
        points = {zeta, zeta * g};

        FriOpenedProof opened =
            friProve({batch_a.get(), batch_b.get()}, points, challenger,
                     cfg, ctx, "fri/openings");
        openings = std::move(opened.openings);
        proof = std::move(opened.proof);
    }

    std::vector<FriBatchInfo>
    batchInfos() const
    {
        return {{batch_a->cap(), batch_a->polyCount()},
                {batch_b->cap(), batch_b->polyCount()}};
    }

    bool
    verify(const std::vector<std::vector<Fp2>> &open,
           const FriProof &p) const
    {
        return verify(batchInfos(), open, p);
    }

    /** Verify against @p infos instead of the committed batches. */
    bool
    verify(const std::vector<FriBatchInfo> &infos,
           const std::vector<std::vector<Fp2>> &open,
           const FriProof &p) const
    {
        Challenger challenger;
        const Fp2 zeta = challenger.challengeExt();
        (void)zeta;
        return friVerify(infos, batch_a->degreeBound(), points, open, p,
                         challenger, cfg);
    }
};

TEST(PolynomialBatch, LeavesMatchNaiveEvaluation)
{
    const size_t n = 16;
    ProverContext ctx;
    const FriConfig cfg = FriConfig::testing();
    const auto orig = randomValues(3, n, 7);
    PolynomialBatch batch = PolynomialBatch::fromValues(orig, n, 3, cfg, ctx,
                                                        "t");

    EXPECT_EQ(batch.polyCount(), 3u);
    EXPECT_EQ(batch.degreeBound(), n);
    EXPECT_EQ(batch.ldeSize(), n * cfg.blowup());

    // The committed polynomial must interpolate the original values on
    // the subgroup H: check p(w^i) = values[i] via coefficients.
    const Fp w = Fp::primitiveRootOfUnity(log2Exact(n));
    for (size_t p = 0; p < 3; ++p) {
        for (size_t i = 0; i < n; i += 5)
            EXPECT_EQ(horner(batch.coefficients(p), n, w.pow(i)),
                      orig[p * n + i]);
    }

    // Leaf i holds all polys' values at LDE point shift*w_big^rev(i).
    const size_t lde = batch.ldeSize();
    const Fp w_big = Fp::primitiveRootOfUnity(log2Exact(lde));
    for (size_t i : {size_t{0}, size_t{1}, lde - 1}) {
        const Fp x = cfg.shift() * w_big.pow(reverseBits(i,
                                                         log2Exact(lde)));
        for (size_t p = 0; p < 3; ++p)
            EXPECT_EQ(batch.ldeValue(p, i),
                      horner(batch.coefficients(p), n, x));
    }
}

TEST(PolynomialBatch, RowGatherMatchesLdeValues)
{
    // A query opening gathers one row of the column-major LDE; every
    // row must hold each polynomial's value at that LDE point, and the
    // leaf view must read the same buffer.
    ProverContext ctx;
    const FriConfig cfg = FriConfig::testing();
    const PolynomialBatch batch = randomBatch(5, 32, 17, cfg, ctx);
    const LeafView view = batch.leafView();
    ASSERT_EQ(view.count, batch.ldeSize());
    ASSERT_EQ(view.width, batch.polyCount());
    for (size_t i = 0; i < batch.ldeSize(); ++i) {
        const std::vector<Fp> row = view.leaf(i);
        ASSERT_EQ(row.size(), batch.polyCount());
        for (size_t p = 0; p < batch.polyCount(); ++p) {
            ASSERT_EQ(row[p], batch.ldeValue(p, i)) << "row " << i;
            ASSERT_EQ(view.at(i, p), batch.ldeColumn(p)[i]) << "row " << i;
        }
    }
}

TEST(PolynomialBatch, ByteSizeIsCoefficientsLdeAndDigests)
{
    // 3 polynomials of degree bound 8 at blowup 8 (64 LDE points), cap
    // height 1: 3 * 8 coefficients, 3 * 64 LDE values, and the digests
    // of levels 64, 32, ..., 2.
    ProverContext ctx;
    const FriConfig cfg = FriConfig::testing();
    ASSERT_EQ(cfg.blowupBits, 3u);
    ASSERT_EQ(cfg.capHeight, 1u);
    const PolynomialBatch batch = randomBatch(3, 8, 18, cfg, ctx);
    const size_t digests = 64 + 32 + 16 + 8 + 4 + 2;
    EXPECT_EQ(batch.byteSize(),
              3 * 8 * sizeof(Fp) + 3 * 64 * sizeof(Fp) + digests * 32);
}

TEST(PolynomialBatch, EvalExtMatchesBaseFieldEval)
{
    ProverContext ctx;
    const FriConfig cfg = FriConfig::testing();
    PolynomialBatch batch = randomBatch(2, 8, 9, cfg, ctx);
    const Fp x(12345);
    EXPECT_EQ(batch.evalAllExt(Fp2(x))[1],
              Fp2(horner(batch.coefficients(1), 8, x)));
}

/** Restore auto thread count when a test forces a pool size. */
struct ThreadCountGuard
{
    explicit ThreadCountGuard(unsigned threads)
    {
        setGlobalThreadCount(threads);
    }
    ~ThreadCountGuard() { setGlobalThreadCount(0); }
};

TEST(PolynomialBatch, EvalAllExtMatchesHornerAtEveryThreadCount)
{
    // 2^13 coefficients: the power table spans two 4096-term chunks.
    ProverContext ctx;
    const FriConfig cfg = FriConfig::testing();
    const size_t n = size_t{1} << 13;
    PolynomialBatch batch = randomBatch(5, n, 11, cfg, ctx);
    SplitMix64 rng(12);
    for (const Fp2 z : {randomFp2(rng), Fp2(Fp(Fp::modulus - 1),
                                            Fp(Fp::modulus - 1)),
                        Fp2::zero(), Fp2::one()}) {
        std::vector<Fp2> expect(batch.polyCount());
        for (size_t i = 0; i < expect.size(); ++i)
            expect[i] = horner(batch.coefficients(i), n, z);
        for (const unsigned threads : {1u, 2u, 3u, 8u}) {
            const ThreadCountGuard guard(threads);
            EXPECT_EQ(batch.evalAllExt(z), expect)
                << "threads=" << threads;
        }
    }
}

TEST(DeepCombination, MatchesPerTermForm)
{
    // Rows of different widths, empty ones included, one row of all
    // p - 1; powers from a random alpha and powers whose limbs are all
    // p - 1. The oracle is the per-term sum of alpha^k * Fp2(v_k).
    SplitMix64 rng(13);
    std::vector<std::vector<Fp>> rows;
    for (const size_t width : {135u, 0u, 3u, 1u, 17u, 192u})
        rows.push_back(randomValues(1, width, 14 + width));
    rows.emplace_back(64, Fp(Fp::modulus - 1));
    size_t total = 0;
    for (const auto &row : rows)
        total += row.size();
    // The verifier's one-point form: each row is a one-leaf view.
    auto view_at = [&](size_t r) {
        return LeafView::rowMajor(rows[r].data(), rows[r].size(), 1);
    };

    std::vector<Fp2> alpha_pows(total + 2);
    const Fp2 alpha = randomFp2(rng);
    Fp2 cur = Fp2::one();
    for (Fp2 &p : alpha_pows) {
        p = cur;
        cur *= alpha;
    }
    std::vector<Fp2> max_pows(
        total, Fp2(Fp(Fp::modulus - 1), Fp(Fp::modulus - 1)));

    for (const auto *pows : {&alpha_pows, &max_pows}) {
        const DeepCombination combination(*pows);
        for (size_t count = 0; count <= rows.size(); ++count) {
            Fp2 expect;
            size_t k = 0;
            for (size_t r = 0; r < count; ++r)
                for (const Fp v : rows[r])
                    expect += (*pows)[k++] * Fp2(v);
            Fp2 got;
            combination.combine(view_at, count, 0, 1, &got);
            EXPECT_EQ(got, expect) << "rows=" << count;
        }
    }
}

TEST(DeepCombination, ColumnSweepMatchesPerTermFormAtEveryPoint)
{
    // The prover's form: column-major batches over a ragged number of
    // points, combined one block at a time at several block offsets,
    // against the per-term sum at each point.
    constexpr size_t kBlock = DeepCombination::kBlock;
    const size_t points = 2 * kBlock + 37;
    const std::vector<size_t> widths{135, 0, 3, 17};
    std::vector<std::vector<Fp>> columns;
    size_t total = 0;
    for (const size_t width : widths) {
        columns.push_back(randomValues(1, width * points, 30 + width));
        total += width;
    }
    // Sprinkle p - 1 in so that the 128-bit sums wrap.
    for (size_t i = 0; i < columns[0].size(); i += 3)
        columns[0][i] = Fp(Fp::modulus - 1);
    auto view_at = [&](size_t b) {
        return LeafView::columnMajor(columns[b].data(), widths[b], points);
    };
    SplitMix64 rng(31);
    std::vector<Fp2> pows(total);
    for (Fp2 &p : pows)
        p = randomFp2(rng);
    const DeepCombination combination(pows);

    std::vector<Fp2> expect(points);
    for (size_t i = 0; i < points; ++i) {
        size_t k = 0;
        for (size_t b = 0; b < widths.size(); ++b)
            for (size_t p = 0; p < widths[b]; ++p)
                expect[i] += pows[k++] * Fp2(view_at(b).at(i, p));
    }
    for (const size_t first : {size_t{0}, size_t{5}, kBlock - 1}) {
        std::vector<Fp2> got(points);
        for (size_t lo = 0; lo < points;) {
            const size_t count =
                std::min(lo == 0 ? first + 1 : kBlock, points - lo);
            combination.combine(view_at, widths.size(), lo, count,
                                &got[lo]);
            lo += count;
        }
        EXPECT_EQ(got, expect) << "first block " << first + 1;
    }
}

TEST(PolynomialBatch, RecordsKernels)
{
    TraceRecorder recorder;
    ProverContext ctx;
    ctx.recorder = &recorder;
    const FriConfig cfg = FriConfig::testing();
    randomBatch(2, 16, 10, cfg, ctx);
    // iNTT + LDE NTT + transpose + merkle
    ASSERT_EQ(recorder.trace().size(), 4u);
    EXPECT_STREQ(kernelPayloadName(recorder.trace().ops[0].payload), "ntt");
    EXPECT_STREQ(kernelPayloadName(recorder.trace().ops[3].payload),
                 "merkle");
}

TEST(Fri, HonestProofVerifies)
{
    FriFixture f(64, 3, 2, FriConfig::testing());
    EXPECT_TRUE(f.verify(f.openings, f.proof));
}

TEST(Fri, HonestProofVerifiesLargerDomain)
{
    FriConfig cfg = FriConfig::testing();
    cfg.numQueries = 10;
    FriFixture f(256, 5, 4, cfg);
    EXPECT_TRUE(f.verify(f.openings, f.proof));
}

TEST(Fri, StarkyBlowupConfigVerifies)
{
    FriConfig cfg = FriConfig::testing();
    cfg.blowupBits = 1; // Starky's blowup factor of 2
    cfg.numQueries = 12;
    FriFixture f(128, 4, 1, cfg);
    EXPECT_TRUE(f.verify(f.openings, f.proof));
}

TEST(Fri, NoFoldingLayersWhenDegreeSmall)
{
    FriConfig cfg = FriConfig::testing();
    cfg.finalPolyLen = 64;
    FriFixture f(32, 2, 1, cfg); // n < finalPolyLen: zero layers
    EXPECT_TRUE(f.proof.layerCaps.empty());
    EXPECT_TRUE(f.verify(f.openings, f.proof));
}

TEST(Fri, TamperedOpeningFails)
{
    FriFixture f(64, 3, 2, FriConfig::testing());
    auto bad = f.openings;
    bad[0][1] += Fp2::one();
    EXPECT_FALSE(f.verify(bad, f.proof));
}

TEST(Fri, MalformedOpeningShapesRejected)
{
    // One row per point, one value per committed polynomial: any other
    // shape is rejected, not read past its end.
    FriFixture f(64, 3, 2, FriConfig::testing());
    ASSERT_TRUE(f.verify(f.openings, f.proof));
    auto missing_row = f.openings;
    missing_row.pop_back();
    auto extra_row = f.openings;
    extra_row.push_back(extra_row[0]);
    auto short_row = f.openings;
    short_row[1].pop_back();
    auto long_row = f.openings;
    long_row[0].push_back(Fp2::one());
    for (const auto *bad : {&missing_row, &extra_row, &short_row, &long_row})
        EXPECT_FALSE(f.verify(*bad, f.proof));
}

TEST(Fri, TamperedFinalPolyFails)
{
    FriFixture f(64, 3, 2, FriConfig::testing());
    auto bad = f.proof;
    bad.finalPoly[0] += Fp2::one();
    EXPECT_FALSE(f.verify(f.openings, bad));
}

TEST(Fri, TamperedLayerCapFails)
{
    FriFixture f(64, 3, 2, FriConfig::testing());
    auto bad = f.proof;
    ASSERT_FALSE(bad.layerCaps.empty());
    bad.layerCaps[0][0].elems[0] += Fp::one();
    EXPECT_FALSE(f.verify(f.openings, bad));
}

TEST(Fri, TamperedQueryValueFails)
{
    FriFixture f(64, 3, 2, FriConfig::testing());
    auto bad = f.proof;
    bad.queries[0].initial[0].values[0] += Fp::one();
    EXPECT_FALSE(f.verify(f.openings, bad));
}

TEST(Fri, TamperedPowNonceFails)
{
    FriFixture f(64, 3, 2, FriConfig::testing());
    auto bad = f.proof;
    bad.powNonce += 1;
    // Either the PoW check itself or a downstream query index change
    // must reject.
    EXPECT_FALSE(f.verify(f.openings, bad));
}

TEST(Fri, WrongQueryCountFails)
{
    FriFixture f(64, 3, 2, FriConfig::testing());
    auto bad = f.proof;
    bad.queries.pop_back();
    EXPECT_FALSE(f.verify(f.openings, bad));
}

TEST(Fri, ForgedLeafInAnyOneQueryRejected)
{
    // A prover that commits to a changed leaf of batch a passes every
    // Merkle check, so only the arithmetic of the queries opening that
    // leaf can catch it. Forge the leaf of each query in turn, at pool
    // sizes that move the query-chunk boundaries.
    FriConfig cfg = FriConfig::testing();
    cfg.numQueries = 20;
    FriFixture f(64, 3, 2, cfg);
    ASSERT_TRUE(f.verify(f.openings, f.proof));
    const MerkleTree &tree = f.batch_a->tree();
    std::vector<std::vector<Fp>> leaves;
    for (size_t i = 0; i < tree.leafCount(); ++i)
        leaves.push_back(f.batch_a->leafView().leaf(i));
    const size_t width = leaves[0].size();
    // The query indices, recovered from the opened (random) leaves.
    std::vector<size_t> indices;
    for (const auto &round : f.proof.queries)
        indices.push_back(static_cast<size_t>(
            std::find(leaves.begin(), leaves.end(),
                      round.initial[0].values) -
            leaves.begin()));

    for (const unsigned threads : {1u, 2u, 3u, 8u}) {
        setGlobalThreadCount(threads);
        for (size_t k = 0; k < cfg.numQueries; ++k) {
            auto forged_leaves = leaves;
            forged_leaves[indices[k]][0] += Fp::one();
            std::vector<Fp> packed;
            for (const auto &leaf : forged_leaves)
                packed.insert(packed.end(), leaf.begin(), leaf.end());
            const MerkleTree forged(
                LeafView::rowMajor(packed.data(), width,
                                   forged_leaves.size()),
                tree.capHeight());
            auto bad = f.proof;
            for (size_t q = 0; q < cfg.numQueries; ++q) {
                bad.queries[q].initial[0].values =
                    forged_leaves[indices[q]];
                bad.queries[q].initial[0].proof = forged.prove(indices[q]);
            }
            auto infos = f.batchInfos();
            infos[0].cap = forged.cap();
            EXPECT_FALSE(f.verify(infos, f.openings, bad))
                << "query " << k << " threads " << threads;
        }
    }
    setGlobalThreadCount(0);
}

TEST(Fri, DomainBeyondTwoAdicityRejected)
{
    // Regression: a degree bound whose LDE domain has 2^33 points used
    // to abort in Fp::primitiveRootOfUnity once the proof's shape
    // passed the earlier checks. This one does: 27 layer caps fold
    // 2^30 down to the final length 8, one query round, no PoW.
    FriConfig cfg = FriConfig::testing();
    cfg.powBits = 0;
    cfg.numQueries = 1;
    const size_t n = size_t{1} << 30; // blowup 8
    FriProof proof;
    proof.layerCaps.assign(27, MerkleCap(2));
    proof.queries.resize(1);
    const std::vector<FriBatchInfo> batches{{MerkleCap(2), 1}};
    const std::vector<Fp2> points{Fp2(Fp(7))};
    const std::vector<std::vector<Fp2>> openings{{Fp2()}};
    Challenger challenger;
    EXPECT_FALSE(friVerify(batches, n, points, openings, proof,
                           challenger, cfg));

    EXPECT_FALSE(friDomainFits(n, cfg));
    EXPECT_TRUE(friDomainFits(n / 2, cfg));
    EXPECT_FALSE(friDomainFits(size_t{1} << 33, FriConfig{}));
    EXPECT_FALSE(friDomainFits(0, cfg));
    EXPECT_FALSE(friDomainFits(48, cfg));
}

TEST(Fri, ProofSizeIsPositiveAndGrowsWithQueries)
{
    FriConfig few = FriConfig::testing();
    FriConfig many = FriConfig::testing();
    many.numQueries = few.numQueries * 2;
    FriFixture a(64, 3, 2, few);
    FriFixture b(64, 3, 2, many);
    EXPECT_GT(a.proof.byteSize(), 0u);
    EXPECT_GT(b.proof.byteSize(), a.proof.byteSize());
}

TEST(Fri, ConfigSecurityAccounting)
{
    EXPECT_EQ(FriConfig::plonky2().conjecturedSecurityBits(), 100u);
    EXPECT_EQ(FriConfig::starky().conjecturedSecurityBits(), 100u);
    EXPECT_EQ(FriConfig::plonky2().blowup(), 8u);  // paper: k >= 8
    EXPECT_EQ(FriConfig::starky().blowup(), 2u);   // paper: k = 2
}

/** The serial reference grinder: the first nonce powValid accepts. */
uint64_t
serialPowNonce(Fp challenge, uint32_t bits)
{
    uint64_t nonce = 0;
    while (!powValid(challenge, nonce, bits))
        ++nonce;
    return nonce;
}

/** Nonces hashed through the block that ends past @p nonce. */
uint64_t
blockEndAfter(uint64_t nonce)
{
    uint64_t end = 0;
    for (uint64_t block = kPowFirstBlock; end <= nonce;
         block = std::min(2 * block, kPowMaxBlock))
        end += block;
    return end;
}

/** A grinding configuration: SIMD level x pool thread count. */
struct GrindConfig
{
    SimdLevel level;
    unsigned threads;

    std::string
    name() const
    {
        return std::string(simdLevelName(level)) + " x" +
               std::to_string(threads);
    }
};

/** 1/2/8 pool threads under every SIMD level this host can execute. */
std::vector<GrindConfig>
grindConfigs()
{
    std::vector<GrindConfig> configs;
    for (const SimdLevel level : {SimdLevel::Scalar, SimdLevel::Avx2}) {
        if (!simdLevelAvailable(level))
            continue;
        for (const unsigned threads : {1u, 2u, 8u})
            configs.push_back({level, threads});
    }
    return configs;
}

/** Run @p fn under @p config, restoring level and thread count after. */
template <typename Fn>
void
withGrindConfig(const GrindConfig &config, Fn &&fn)
{
    const SimdLevel prev_level = activeSimdLevel();
    const unsigned prev_threads = globalThreadCount();
    ASSERT_TRUE(setSimdLevel(config.level));
    setGlobalThreadCount(config.threads);
    fn();
    setGlobalThreadCount(prev_threads);
    ASSERT_TRUE(setSimdLevel(prev_level));
}

TEST(Pow, ValidMatchesHashNoPadDigest)
{
    // The PoW digest is hashNoPad({challenge, nonce}): proofs ground
    // before the shared state helper existed must still verify.
    SplitMix64 rng(11);
    for (int i = 0; i < 50; ++i) {
        const Fp challenge = randomFp(rng);
        const uint64_t nonce = rng.next();
        const Fp digest = hashNoPad({challenge, Fp(nonce)}).elems[0];
        for (const uint32_t bits : {1u, 2u, 4u}) {
            EXPECT_EQ(powValid(challenge, nonce, bits),
                      fpHighBits(digest, bits) == 0)
                << "i=" << i << " bits=" << bits;
        }
    }
}

TEST(Pow, ZeroBitsNeedsNoGrinding)
{
    for (const GrindConfig &config : grindConfigs()) {
        withGrindConfig(config, [&] {
            const PowGrindResult r = powGrind(Fp(12345), 0);
            EXPECT_EQ(r.nonce, 0u) << config.name();
            EXPECT_EQ(r.hashes, 0u) << config.name();
        });
    }
    EXPECT_TRUE(powValid(Fp(12345), 0, 0));
}

TEST(Pow, GrinderMatchesSerialLoop)
{
    // 240 challenges in 20 sweeps over the difficulties 1..12 bits.
    // Sweep s runs under configuration s mod (number of configs), so
    // every configuration grinds every difficulty several times.
    constexpr uint32_t kMaxBits = 12;
    constexpr size_t kCases = 240;
    std::vector<Fp> challenges(kCases);
    SplitMix64 rng(2024);
    for (auto &c : challenges)
        c = randomFp(rng);
    const auto bitsOf = [](size_t i) {
        return static_cast<uint32_t>(1 + i % kMaxBits);
    };

    // The serial loops are independent of each other: run them side by
    // side.
    std::vector<uint64_t> expected(kCases);
    parallelFor(0, kCases, 1, [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i)
            expected[i] = serialPowNonce(challenges[i], bitsOf(i));
    });

    const std::vector<GrindConfig> configs = grindConfigs();
    for (size_t sweep = 0; sweep < kCases / kMaxBits; ++sweep) {
        const GrindConfig &config = configs[sweep % configs.size()];
        withGrindConfig(config, [&] {
            for (size_t i = sweep * kMaxBits; i < (sweep + 1) * kMaxBits;
                 ++i) {
                const PowGrindResult r =
                    powGrind(challenges[i], bitsOf(i));
                ASSERT_EQ(r.nonce, expected[i])
                    << config.name() << " case " << i
                    << " bits=" << bitsOf(i);
                EXPECT_EQ(r.hashes, blockEndAfter(r.nonce))
                    << config.name();
            }
        });
    }
}

TEST(Pow, GrinderMatchesSerialLoopAtBlockBoundaries)
{
    // Challenges whose first valid nonce is the last nonce of a block
    // or the first nonce of the next one, for the first two block ends
    // of the growing schedule.
    const uint64_t end0 = kPowFirstBlock;
    const uint64_t end1 = end0 + std::min(2 * kPowFirstBlock, kPowMaxBlock);
    const std::vector<uint64_t> targets{end0 - 1, end0, end1 - 1, end1};
    constexpr uint32_t kMaxBits = 12;

    // Hash nonces 0..end1 per challenge once and read off, for every
    // difficulty, the first nonce that clears it.
    std::vector<std::tuple<Fp, uint32_t, uint64_t>> found;
    std::vector<bool> have(targets.size(), false);
    for (uint64_t c = 0; c < 5000 && found.size() < targets.size(); ++c) {
        const Fp challenge(c);
        std::vector<uint64_t> first(kMaxBits + 1, UINT64_MAX);
        for (uint64_t nonce = 0; nonce <= end1; ++nonce) {
            const Fp digest = hashNoPad({challenge, Fp(nonce)}).elems[0];
            for (uint32_t bits = 1; bits <= kMaxBits; ++bits)
                if (first[bits] == UINT64_MAX &&
                    fpHighBits(digest, bits) == 0)
                    first[bits] = nonce;
        }
        for (size_t t = 0; t < targets.size(); ++t) {
            for (uint32_t bits = 1; bits <= kMaxBits && !have[t]; ++bits) {
                if (first[bits] == targets[t]) {
                    found.emplace_back(challenge, bits, targets[t]);
                    have[t] = true;
                }
            }
        }
    }
    ASSERT_EQ(found.size(), targets.size())
        << "no challenge found for some block boundary";

    for (const auto &[challenge, bits, target] : found) {
        ASSERT_EQ(serialPowNonce(challenge, bits), target);
        for (const GrindConfig &config : grindConfigs()) {
            withGrindConfig(config, [&] {
                const PowGrindResult r = powGrind(challenge, bits);
                EXPECT_EQ(r.nonce, target)
                    << config.name() << " bits=" << bits;
                EXPECT_EQ(r.hashes, blockEndAfter(target))
                    << config.name() << " target=" << target;
            });
        }
    }
}

} // namespace
} // namespace unizk
