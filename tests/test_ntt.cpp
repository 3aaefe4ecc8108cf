/**
 * @file
 * Tests for the NTT library: every entry point against the naive DFT,
 * inverse round trips, convolution property, LDE, and the
 * multi-dimensional decomposition used by the hardware mapper.
 */

#include <algorithm>
#include <thread>

#include <gtest/gtest.h>

#include "common/bits.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "field/goldilocks_simd.h"
#include "ntt/ntt.h"
#include "trace/prover_context.h"

namespace unizk {
namespace {

std::vector<Fp>
randomVector(size_t n, uint64_t seed)
{
    SplitMix64 rng(seed);
    std::vector<Fp> v(n);
    for (auto &x : v)
        x = randomFp(rng);
    return v;
}

/** Equally sized polynomials, one after another, as the batch API
 *  stores them. */
std::vector<Fp>
flatten(const std::vector<std::vector<Fp>> &polys)
{
    std::vector<Fp> flat;
    for (const auto &p : polys)
        flat.insert(flat.end(), p.begin(), p.end());
    return flat;
}

/** A flat buffer split back into @p count vectors. */
std::vector<std::vector<Fp>>
unflatten(const std::vector<Fp> &flat, size_t count)
{
    const size_t m = flat.size() / count;
    std::vector<std::vector<Fp>> out;
    for (size_t p = 0; p < count; ++p)
        out.emplace_back(flat.begin() + static_cast<std::ptrdiff_t>(p * m),
                         flat.begin() +
                             static_cast<std::ptrdiff_t>((p + 1) * m));
    return out;
}

/** ldeBatch's column-major output, split into one vector per polynomial. */
std::vector<std::vector<Fp>>
ldeColumns(const std::vector<std::vector<Fp>> &coeffs, uint32_t blowup,
           Fp shift)
{
    const size_t n = coeffs[0].size();
    std::vector<Fp> out(coeffs.size() * n * blowup);
    ldeBatch(flatten(coeffs).data(), n, coeffs.size(), blowup, shift,
             out.data());
    return unflatten(out, coeffs.size());
}

/** inttBatchNN of equally sized polynomials, through their flat buffer. */
void
inttEach(std::vector<std::vector<Fp>> &polys)
{
    std::vector<Fp> flat = flatten(polys);
    inttBatchNN(flat.data(), polys[0].size(), polys.size());
    polys = unflatten(flat, polys.size());
}

/** A copy of @p v in bit-reversed order. */
std::vector<Fp>
bitReversed(std::vector<Fp> v)
{
    bitReversePermute(v);
    return v;
}

/** inttBatchNN of a one-polynomial batch. */
std::vector<Fp>
inttOne(std::vector<Fp> values)
{
    inttBatchNN(values.data(), values.size(), 1);
    return values;
}

Fp
randomShift(uint64_t seed)
{
    SplitMix64 rng(seed);
    Fp s = randomFp(rng);
    return s.isZero() ? Fp(3) : s;
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

class NttSizes : public ::testing::TestWithParam<size_t>
{};

TEST_P(NttSizes, NttNRIsBitReversedNaiveDft)
{
    const size_t n = GetParam();
    auto a = randomVector(n, n);
    const auto expect = naiveDft(a, Fp::one());
    nttNR(a);
    EXPECT_EQ(bitReversed(a), expect);
}

TEST_P(NttSizes, InttBatchNNInvertsNaturalOrderNtt)
{
    const size_t n = GetParam();
    const auto orig = randomVector(n, n + 3);
    auto a = orig;
    nttNR(a);
    EXPECT_EQ(inttOne(bitReversed(a)), orig);
}

TEST_P(NttSizes, InverseRoundTripNRThenRN)
{
    const size_t n = GetParam();
    const auto orig = randomVector(n, n + 4);
    auto a = orig;
    nttNR(a);                  // natural coeffs -> bit-reversed values
    cosetInttRN(a, Fp::one()); // bit-reversed values -> natural coeffs
    EXPECT_EQ(a, orig);
}

TEST_P(NttSizes, CosetNttMatchesNaive)
{
    const size_t n = GetParam();
    const Fp shift = defaultCosetShift();
    const auto a = randomVector(n, n + 6);
    EXPECT_EQ(bitReversed(lowDegreeExtension(a, 1, shift)),
              naiveDft(a, shift));
}

TEST_P(NttSizes, CosetInverseRoundTrip)
{
    const size_t n = GetParam();
    const Fp shift = defaultCosetShift();
    const auto orig = randomVector(n, n + 7);
    auto b = lowDegreeExtension(orig, 1, shift);
    cosetInttRN(b, shift);
    EXPECT_EQ(b, orig);
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, NttSizes,
                         ::testing::Values(1, 2, 4, 8, 16, 64, 256, 1024));

TEST(Ntt, NaiveIdftInvertsNaiveDft)
{
    const auto orig = randomVector(16, 99);
    const Fp shift = Fp(5);
    const auto vals = naiveDft(orig, shift);
    EXPECT_EQ(naiveIdft(vals, shift), orig);
}

TEST(Ntt, ConvolutionTheorem)
{
    // Multiplying polynomials via pointwise products of NTTs.
    const size_t n = 64;
    auto a = randomVector(n / 2, 1);
    auto b = randomVector(n / 2, 2);

    // Schoolbook product.
    std::vector<Fp> expect(n, Fp::zero());
    for (size_t i = 0; i < a.size(); ++i)
        for (size_t j = 0; j < b.size(); ++j)
            expect[i + j] += a[i] * b[j];

    // NR/RN pairing: the pointwise product is order-agnostic, so the
    // bit-reversed evaluations need no permutation pass.
    a.resize(n, Fp::zero());
    b.resize(n, Fp::zero());
    nttNR(a);
    nttNR(b);
    std::vector<Fp> c(n);
    for (size_t i = 0; i < n; ++i)
        c[i] = a[i] * b[i];
    cosetInttRN(c, Fp::one());
    EXPECT_EQ(c, expect);
}

TEST(Ntt, LdeAgreesWithNaiveCosetEvaluation)
{
    const size_t n = 32;
    const uint32_t blowup = 8;
    const Fp shift = defaultCosetShift();
    const auto coeffs = randomVector(n, 3);

    auto lde = lowDegreeExtension(coeffs, blowup, shift);
    ASSERT_EQ(lde.size(), n * blowup);
    bitReversePermute(lde); // back to natural order for comparison

    auto padded = coeffs;
    padded.resize(n * blowup, Fp::zero());
    const auto expect = naiveDft(padded, shift);
    EXPECT_EQ(lde, expect);
}

TEST(Ntt, LdeCosetSplitMatchesPaddedTransform)
{
    // The engine evaluates LDEs coset-by-coset (blowup size-n
    // sub-transforms) instead of one padded size-(n*blowup) transform.
    // Pin value-identity against the padded formulation for every
    // blowup, at the standard shift (cached coset table) and at random
    // shifts (pow-chain scaling), single polys and batches.
    for (const size_t n : {size_t{1}, size_t{2}, size_t{16}, size_t{64}}) {
        for (const uint32_t blowup : {1u, 2u, 4u, 8u, 16u}) {
            for (const Fp shift :
                 {defaultCosetShift(), randomShift(n * 17 + blowup)}) {
                const auto coeffs = randomVector(n, n * 31 + blowup);
                auto padded = coeffs;
                padded.resize(n * blowup, Fp::zero());
                padded = bitReversed(naiveDft(padded, shift));

                EXPECT_EQ(lowDegreeExtension(coeffs, blowup, shift),
                          padded)
                    << "n=" << n << " blowup=" << blowup;

                const std::vector<std::vector<Fp>> batch{coeffs, coeffs};
                const auto nr = ldeColumns(batch, blowup, shift);
                EXPECT_EQ(nr[0], padded);
                EXPECT_EQ(nr[1], padded);
            }
        }
    }
}

TEST(Ntt, LdePreservesLowDegreeStructure)
{
    // The LDE of a degree-(n-1) polynomial, restricted back via iNTT on
    // the big domain, has zero coefficients above n.
    const size_t n = 16;
    const uint32_t blowup = 4;
    const Fp shift = defaultCosetShift();
    const auto coeffs = randomVector(n, 4);

    auto lde = lowDegreeExtension(coeffs, blowup, shift);
    cosetInttRN(lde, shift);
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(lde[i], coeffs[i]);
    for (size_t i = n; i < lde.size(); ++i)
        EXPECT_TRUE(lde[i].isZero()) << "coefficient " << i;
}

TEST(Ntt, DecomposeDims)
{
    EXPECT_EQ(decomposeNttDims(9, 3), (std::vector<uint32_t>{3, 3, 3}));
    // Balanced, not greedy: the old greedy split gave {3, 3, 3, 1} with
    // a degenerate size-2 trailing dimension.
    EXPECT_EQ(decomposeNttDims(10, 3), (std::vector<uint32_t>{3, 3, 2, 2}));
    EXPECT_EQ(decomposeNttDims(5, 5), (std::vector<uint32_t>{5}));
    EXPECT_EQ(decomposeNttDims(2, 5), (std::vector<uint32_t>{2}));
}

TEST(Ntt, DecomposeDimsBalancedRegression)
{
    // Pin the splits the simulator's NTT mapper sees for the realistic
    // range of transform sizes against the hardware dimension limit of
    // 2^8 (the paper's SAM tile). The greedy splitter used to emit
    // degenerate trailing dims, e.g. log 17 -> [8, 8, 1].
    const std::vector<std::vector<uint32_t>> expect = {
        {6, 6},       // log 12
        {7, 6},       // log 13
        {7, 7},       // log 14
        {8, 7},       // log 15
        {8, 8},       // log 16
        {6, 6, 5},    // log 17 (greedy would say [8, 8, 1])
        {6, 6, 6},    // log 18
        {7, 6, 6},    // log 19
        {7, 7, 6},    // log 20
        {7, 7, 7},    // log 21
        {8, 7, 7},    // log 22
        {8, 8, 7},    // log 23
        {8, 8, 8},    // log 24
    };
    for (uint32_t log = 12; log <= 24; ++log)
        EXPECT_EQ(decomposeNttDims(log, 8), expect[log - 12])
            << "log size " << log;

    // Structural invariants across a wider sweep: dims sum to the log
    // size, respect the limit, use the minimum count, and are balanced
    // to within one bit with larger dims first.
    for (uint32_t log = 1; log <= 28; ++log) {
        for (uint32_t max = 1; max <= 10; ++max) {
            const auto dims = decomposeNttDims(log, max);
            ASSERT_EQ(dims.size(), ceilDiv(log, max));
            uint32_t sum = 0;
            for (size_t i = 0; i < dims.size(); ++i) {
                sum += dims[i];
                EXPECT_LE(dims[i], max);
                EXPECT_GE(dims[i], 1u);
                if (i > 0) {
                    EXPECT_LE(dims[i - 1] - dims[i], 1u);
                }
            }
            EXPECT_EQ(sum, log);
        }
    }
}

class MultidimSizes
    : public ::testing::TestWithParam<std::pair<size_t, uint32_t>>
{};

TEST_P(MultidimSizes, MatchesDirectNtt)
{
    const auto [n, log_max] = GetParam();
    auto a = randomVector(n, n * 31 + log_max);
    auto b = a;
    nttNR(a);
    multidimNttNN(b, log_max);
    EXPECT_EQ(bitReversed(a), b);
}

INSTANTIATE_TEST_SUITE_P(
    Decompositions, MultidimSizes,
    ::testing::Values(std::make_pair<size_t, uint32_t>(512, 3),  // 8x8x8
                      std::make_pair<size_t, uint32_t>(1024, 5), // 32x32
                      std::make_pair<size_t, uint32_t>(64, 5),   // 32x2
                      std::make_pair<size_t, uint32_t>(256, 4),
                      std::make_pair<size_t, uint32_t>(32, 5)));

TEST(Ntt, SizeOneAllVariants)
{
    const Fp shift = randomShift(7);
    std::vector<Fp> a{Fp(7)};
    nttNR(a);
    cosetInttRN(a, shift);
    cosetInttRN(a, defaultCosetShift());
    multidimNttNN(a, 3);
    EXPECT_EQ(a[0], Fp(7));
    EXPECT_EQ(inttOne(a), a);
    for (const Fp s : {shift, defaultCosetShift()}) {
        EXPECT_EQ(lowDegreeExtension({Fp(7)}, 1, s),
                  std::vector<Fp>{Fp(7)});
        EXPECT_EQ(ldeColumns({{Fp(7)}}, 1, s),
                  std::vector<std::vector<Fp>>{{Fp(7)}});
    }
    std::vector<Fp2> ext{Fp2(Fp(7), Fp(8))};
    inttNNExt(ext);
    cosetInttNNExt(ext, shift);
    EXPECT_EQ(ext[0], Fp2(Fp(7), Fp(8)));
}

TEST(Ntt, DecomposeDimsZeroSize)
{
    // A size-2^0 = 1 transform needs no dimensions at all.
    EXPECT_EQ(decomposeNttDims(0, 3), std::vector<uint32_t>{});
}

TEST(NttDeathTest, EmptyInputPanicsWithClearMessage)
{
    // Size-0 input used to reach log2Exact(0) and die with a confusing
    // "power of two" message; the entry points now reject it up front.
    std::vector<Fp> empty;
    EXPECT_DEATH(nttNR(empty), "empty");
    EXPECT_DEATH(cosetInttRN(empty, defaultCosetShift()), "empty");
    EXPECT_DEATH(scalarNttNR(empty), "empty");
    EXPECT_DEATH(multidimNttNN(empty, 3), "empty");
    EXPECT_DEATH(lowDegreeExtension({}, 4, defaultCosetShift()), "empty");
    EXPECT_DEATH(inttBatchNN(empty.data(), 0, 1), "NTT on an empty vector");
    EXPECT_DEATH(ldeBatch(empty.data(), 0, 1, 4, defaultCosetShift(),
                          nullptr),
                 "NTT on an empty vector");
    EXPECT_DEATH(inttBatchNN(empty.data(), 4, 0), "empty polynomial batch");
    std::vector<Fp2> empty_ext;
    EXPECT_DEATH(inttNNExt(empty_ext), "empty");
}

TEST(NttDeathTest, NonPowerOfTwoPanics)
{
    std::vector<Fp> a{Fp(1), Fp(2), Fp(3)};
    EXPECT_DEATH(nttNR(a), "power of two");
    EXPECT_DEATH(cosetInttRN(a, defaultCosetShift()), "power of two");
    EXPECT_DEATH(inttBatchNN(a.data(), a.size(), 1), "power of two");
}

// KernelScope writes the breakdown without synchronisation and charges
// each region once, so it refuses to nest or to open on a pool worker.
TEST(KernelScopeDeathTest, NestedScopePanics)
{
    KernelTimeBreakdown breakdown;
    ProverContext ctx;
    ctx.breakdown = &breakdown;
    EXPECT_DEATH(
        {
            const KernelScope outer(ctx, KernelClass::Ntt, "test/outer");
            const KernelScope inner(ctx, KernelClass::Polynomial,
                                    "test/inner");
        },
        "nested in another KernelScope");
}

TEST(KernelScopeDeathTest, ScopeOnPoolWorkerPanics)
{
    const ProverContext ctx;
    EXPECT_DEATH(
        {
            ThreadPool pool(2);
            pool.parallelFor(0, 8, /*grain=*/1, [&](size_t, size_t) {
                const KernelScope scope(ctx, KernelClass::Ntt,
                                        "test/worker");
            });
        },
        "opened inside a pool chunk");
}

// ---- Exhaustive equivalence sweep: every entry point at every
// power-of-two size 2^1..2^12 against the quadratic-time oracles, with
// random (not just standard) coset shifts. One forward and one coset
// evaluation per size are paid at O(n^2); the inverses are checked
// against those anchors through exact permutation identities.

TEST(NttExhaustive, AllVariantsAllSizesAgainstOracle)
{
    for (uint32_t log = 1; log <= 12; ++log) {
        const size_t n = size_t{1} << log;
        const Fp shift = randomShift(1000 + log);
        const auto orig = randomVector(n, 2000 + log);

        const auto plain = naiveDft(orig, Fp::one());
        const auto coset = naiveDft(orig, shift);

        auto a = orig;
        nttNR(a);
        ASSERT_EQ(bitReversed(a), plain) << "nttNR size " << n;

        EXPECT_EQ(inttOne(plain), orig) << "inttBatchNN size " << n;

        EXPECT_EQ(bitReversed(lowDegreeExtension(orig, 1, shift)), coset)
            << "lowDegreeExtension size " << n;

        a = bitReversed(coset);
        cosetInttRN(a, shift);
        EXPECT_EQ(a, orig) << "cosetInttRN size " << n;

        EXPECT_EQ(naiveIdft(coset, shift), orig)
            << "naiveIdft size " << n;

        // Seed-era scalar reference stays equivalent to the engine.
        a = orig;
        nttNR(a);
        auto b = orig;
        scalarNttNR(b);
        EXPECT_EQ(a, b) << "scalarNttNR size " << n;
    }
}

TEST(NttExhaustive, MultidimMatchesAtEveryMaxDim)
{
    for (uint32_t log = 1; log <= 10; ++log) {
        const size_t n = size_t{1} << log;
        for (uint32_t max = 1; max <= log; ++max) {
            auto a = randomVector(n, 3000 + 31 * log + max);
            auto b = a;
            nttNR(a);
            multidimNttNN(b, max);
            EXPECT_EQ(bitReversed(a), b)
                << "size " << n << " max dim 2^" << max;
        }
    }
}

TEST(NttExhaustive, ExtensionFieldActsLimbwise)
{
    // Twiddles are base-field, so the Fp2 iNTT must equal two
    // independent base-field iNTTs on the limbs.
    for (uint32_t log = 1; log <= 10; ++log) {
        const size_t n = size_t{1} << log;
        const Fp shift = randomShift(4000 + log);
        auto lo = randomVector(n, 5000 + log);
        auto hi = randomVector(n, 6000 + log);
        std::vector<Fp2> v(n);
        for (size_t i = 0; i < n; ++i)
            v[i] = Fp2(lo[i], hi[i]);

        auto plain = v;
        inttNNExt(plain);
        auto coset = v;
        cosetInttNNExt(coset, shift);

        // The natural-order coset inverse is cosetInttRN on bit-reversed
        // values.
        auto lo_coset = bitReversed(lo), hi_coset = bitReversed(hi);
        cosetInttRN(lo_coset, shift);
        cosetInttRN(hi_coset, shift);
        std::vector<std::vector<Fp>> limbs{lo, hi};
        inttEach(limbs);
        lo = limbs[0];
        hi = limbs[1];
        for (size_t i = 0; i < n; ++i) {
            EXPECT_EQ(plain[i], Fp2(lo[i], hi[i])) << "size " << n;
            EXPECT_EQ(coset[i], Fp2(lo_coset[i], hi_coset[i]))
                << "size " << n;
        }
    }
}

// ---- Batch API: identical values to the oracle and the per-polynomial
// entry points, whichever parallel axis the engine picks.

TEST(NttBatch, MatchesPerPolyEntryPoints)
{
    const size_t n = 256;
    const uint32_t blowup = 4;
    const Fp shift = defaultCosetShift();
    std::vector<std::vector<Fp>> polys(7);
    for (size_t p = 0; p < polys.size(); ++p)
        polys[p] = randomVector(n, 7000 + p);

    auto batch = polys;
    inttEach(batch);
    for (size_t p = 0; p < polys.size(); ++p) {
        EXPECT_EQ(batch[p], naiveIdft(polys[p], Fp::one()))
            << "inttBatchNN poly " << p;
    }

    const auto ldes = ldeColumns(polys, blowup, shift);
    for (size_t p = 0; p < polys.size(); ++p) {
        EXPECT_EQ(ldes[p], lowDegreeExtension(polys[p], blowup, shift))
            << "ldeBatch poly " << p;
    }
}

TEST(NttBatch, CommittedLdePrefixIsTheSmallerBlowupLde)
{
    // The quotient evaluators read the first n * 2^q values of a column
    // committed at blowup 2^b >= 2^q as the blowup-2^q LDE: in
    // bit-reversed order, stored index s < n * 2^q has its top b - q
    // bits clear, so rev_b(s) = 2^(b-q) * rev_q(s), and
    // shift * w_{n 2^b}^(2^(b-q) rev_q(s)) = shift * w_{n 2^q}^rev_q(s).
    const Fp shift = defaultCosetShift();
    for (const size_t n : {size_t{4}, size_t{32}, size_t{8192}}) {
        std::vector<std::vector<Fp>> polys(3);
        for (size_t p = 0; p < polys.size(); ++p)
            polys[p] = randomVector(n, 8000 + n + p);
        for (const uint32_t b : {1u, 3u}) {
            const auto committed = ldeColumns(polys, uint32_t{1} << b, shift);
            for (const uint32_t q : {1u, 3u}) {
                if (q > b)
                    continue;
                const auto smaller = ldeColumns(polys, uint32_t{1} << q, shift);
                for (size_t p = 0; p < polys.size(); ++p) {
                    // The padded size-(n 2^q) coset transform.
                    auto padded = polys[p];
                    padded.resize(n << q, Fp::zero());
                    ASSERT_EQ(smaller[p], lowDegreeExtension(padded, 1, shift))
                        << "n=" << n << " q=" << q;
                    ASSERT_TRUE(std::equal(smaller[p].begin(),
                                           smaller[p].end(),
                                           committed[p].begin()))
                        << "n=" << n << " q=" << q << " b=" << b
                        << " poly " << p;
                }
            }
        }
    }
}

// ---- Pool-parallel transforms: sizes past the four-step threshold
// with an oversubscribed pool must match both the seed scalar path and
// the single-thread engine exactly (proof byte-identity rests on this).

TEST(NttParallel, LargeTransformsThreadCountInvariant)
{
    // 2^16 points take every pool path: the four-step DIF of nttNR and
    // inttBatchNN (with the pool-chunked bit-reverse and scaling), the
    // block-first DIT of cosetInttRN, and its coset scaling through the
    // cached table (standard shift) and pow() jumps (random shift).
    const size_t n = size_t{1} << 16;
    const Fp g = defaultCosetShift();
    const Fp shift = randomShift(8002);
    const auto orig = randomVector(n, 8001);
    // Many small polynomials spread across the pool instead.
    std::vector<std::vector<Fp>> small(16);
    for (size_t p = 0; p < small.size(); ++p)
        small[p] = randomVector(1024, 8100 + p);

    const auto transforms = [&] {
        std::vector<std::vector<Fp>> out;
        auto a = orig;
        nttNR(a);
        out.push_back(std::move(a));
        out.push_back(lowDegreeExtension(orig, 2, g));
        out.push_back(inttOne(orig));
        for (const Fp s : {g, shift}) {
            a = orig;
            cosetInttRN(a, s);
            out.push_back(std::move(a));
        }
        auto batch = small;
        inttEach(batch);
        for (auto &v : batch)
            out.push_back(std::move(v));
        return out;
    };

    std::vector<std::vector<Fp>> serial;
    {
        ThreadCountGuard guard(1);
        serial = transforms();
    }
    auto scalar = orig;
    scalarNttNR(scalar);
    ASSERT_EQ(serial[0], scalar);
    ASSERT_EQ(serial[1], scalarLowDegreeExtension(orig, 2, g));

    for (unsigned threads : {2u, 4u, 8u}) {
        ThreadCountGuard guard(threads);
        const auto got = transforms();
        ASSERT_EQ(got.size(), serial.size());
        for (size_t v = 0; v < got.size(); ++v)
            EXPECT_EQ(got[v], serial[v])
                << threads << " threads, transform " << v;

        // Round trips back to the input.
        auto a = got[0];
        EXPECT_EQ(inttOne(bitReversed(a)), orig) << threads << " threads";
        for (const Fp s : {g, shift}) {
            a = lowDegreeExtension(orig, 1, s);
            cosetInttRN(a, s);
            EXPECT_EQ(a, orig) << threads << " threads";
        }
    }
}

// ---- Lane dispatch: the NTT's wide stages and scaling passes run on
// the lane kernels of activeSimdLevel(). Every variant at every size
// 2^0..2^15 (n = 2, 4, 8 are at or below one lane group; 2^15 reaches
// the pool-parallel four-step path), at every level and 1/2/3/8
// threads, must equal the scalar level on one thread, which is itself
// anchored to naiveDft / naiveIdft at the sizes where they are cheap.

/** Force a SIMD level for a scope, restoring the previous one. */
struct SimdLevelGuard
{
    SimdLevel saved;

    explicit SimdLevelGuard(SimdLevel level) : saved(activeSimdLevel())
    {
        unizk_assert(setSimdLevel(level), "SIMD level unavailable");
    }
    ~SimdLevelGuard() { setSimdLevel(saved); }
};

/** Every transform entry point applied to @p orig, in a fixed order. */
std::vector<std::vector<Fp>>
allVariants(const std::vector<Fp> &orig, Fp shift)
{
    const Fp g = defaultCosetShift();
    std::vector<std::vector<Fp>> out;
    auto a = orig;
    nttNR(a);
    out.push_back(std::move(a));
    out.push_back(inttOne(orig));
    // A random shift takes the power-chain scaling; the standard shift
    // takes the cached coset-power tables.
    for (const Fp s : {shift, g}) {
        a = orig;
        cosetInttRN(a, s);
        out.push_back(std::move(a));
        out.push_back(lowDegreeExtension(orig, 1, s));
        out.push_back(lowDegreeExtension(orig, 4, s));
    }
    std::vector<std::vector<Fp>> polys{orig, orig};
    std::reverse(polys[1].begin(), polys[1].end());
    for (auto &v : ldeColumns(polys, 2, g))
        out.push_back(std::move(v));
    for (auto &v : ldeColumns(polys, 2, shift))
        out.push_back(std::move(v));
    inttEach(polys);
    for (auto &v : polys)
        out.push_back(std::move(v));
    return out;
}

TEST(NttLanes, EveryVariantMatchesScalarLevelAtEveryThreadCount)
{
    std::vector<SimdLevel> levels{SimdLevel::Scalar};
    if (simdLevelAvailable(SimdLevel::Avx2))
        levels.push_back(SimdLevel::Avx2);

    for (uint32_t log = 0; log <= 15; ++log) {
        const size_t n = size_t{1} << log;
        const auto orig = randomVector(n, 12000 + log);
        const Fp shift = randomShift(13000 + log);

        std::vector<std::vector<Fp>> reference;
        {
            const SimdLevelGuard level(SimdLevel::Scalar);
            const ThreadCountGuard threads(1);
            reference = allVariants(orig, shift);
        }
        if (log <= 10) {
            EXPECT_EQ(bitReversed(reference[0]), naiveDft(orig, Fp::one()))
                << n;
            EXPECT_EQ(bitReversed(reference[3]), naiveDft(orig, shift))
                << n;
        }
        if (log <= 8) {
            EXPECT_EQ(reference[1], naiveIdft(orig, Fp::one())) << n;
            EXPECT_EQ(reference[2], naiveIdft(bitReversed(orig), shift))
                << n;
        }

        for (const SimdLevel level : levels) {
            for (const unsigned threads : {1u, 2u, 3u, 8u}) {
                const SimdLevelGuard level_guard(level);
                const ThreadCountGuard thread_guard(threads);
                const auto got = allVariants(orig, shift);
                ASSERT_EQ(got.size(), reference.size());
                for (size_t v = 0; v < got.size(); ++v)
                    EXPECT_EQ(got[v], reference[v])
                        << simdLevelName(level) << " threads=" << threads
                        << " n=" << n << " variant=" << v;
            }
        }
    }
}

TEST(NttLanes, SeedScalarPathMatchesEveryLevel)
{
    // The seed-era chained-twiddle core against both levels on the
    // lane-sized edge cases and one pool-parallel size.
    std::vector<SimdLevel> levels{SimdLevel::Scalar};
    if (simdLevelAvailable(SimdLevel::Avx2))
        levels.push_back(SimdLevel::Avx2);
    for (const size_t n : {size_t{2}, size_t{4}, size_t{8}, size_t{16},
                           size_t{1} << 15}) {
        const auto orig = randomVector(n, 14000 + n);
        auto seed = orig;
        scalarNttNR(seed);
        const auto seed_lde = scalarLowDegreeExtension(orig, 2,
                                                       defaultCosetShift());
        for (const SimdLevel level : levels) {
            const SimdLevelGuard guard(level);
            auto a = orig;
            nttNR(a);
            EXPECT_EQ(a, seed) << simdLevelName(level) << " n=" << n;
            EXPECT_EQ(lowDegreeExtension(orig, 2, defaultCosetShift()),
                      seed_lde)
                << simdLevelName(level) << " n=" << n;
        }
    }
}

// ---- Twiddle registry behaviour.

TEST(NttTwiddles, CacheOnOffProducesIdenticalValues)
{
    const size_t n = 2048;
    const auto orig = randomVector(n, 9001);
    const Fp shift = defaultCosetShift();

    // The standard shift reads the registry's coset-power table too.
    setTwiddleCacheEnabled(true);
    auto cached = orig;
    cosetInttRN(cached, shift);

    setTwiddleCacheEnabled(false);
    EXPECT_FALSE(twiddleCacheEnabled());
    auto uncached = orig;
    cosetInttRN(uncached, shift);

    setTwiddleCacheEnabled(true);
    EXPECT_TRUE(twiddleCacheEnabled());
    EXPECT_EQ(cached, uncached);
}

TEST(NttTwiddles, TableLayoutMatchesRootPowers)
{
    const uint32_t log = 10;
    const size_t n = size_t{1} << log;
    const auto t = acquireTwiddles(log);
    // Stage-major: the stage of half-width h holds the powers of the
    // primitive 2h-th root at [h, 2h).
    ASSERT_EQ(t->fwd.size(), n);
    ASSERT_EQ(t->inv.size(), n);
    for (uint32_t k = 1; k <= log; ++k) {
        const size_t h = size_t{1} << (k - 1);
        const Fp w = Fp::primitiveRootOfUnity(k);
        const Fp w_inv = w.inverse();
        Fp p = Fp::one(), q = Fp::one();
        for (size_t j = 0; j < h; ++j) {
            EXPECT_EQ(t->fwd[h + j], p) << "h=" << h << " j=" << j;
            EXPECT_EQ(t->inv[h + j], q) << "h=" << h << " j=" << j;
            p *= w;
            q *= w_inv;
        }
    }
    ASSERT_EQ(t->cosetFwd.size(), n);
    const Fp g = defaultCosetShift();
    EXPECT_EQ(t->cosetFwd[1], g);
    EXPECT_EQ(t->cosetInv[1], g.inverse());
    EXPECT_EQ(t->sizeInv, Fp(static_cast<uint64_t>(n)).inverse());
}

TEST(NttTwiddles, ConcurrentFirstTouchIsSafe)
{
    // Many plain threads race on first touch of the same registry
    // slots while running (sub-threshold, hence inline) transforms.
    // Run under TSAN in CI to prove the registry's locking discipline.
    clearTwiddleCache();
    setTwiddleCacheEnabled(true);
    constexpr unsigned num_threads = 8;
    constexpr uint32_t min_log = 4, max_log = 12;
    std::vector<std::vector<Fp>> results(num_threads);
    std::vector<std::thread> threads;
    threads.reserve(num_threads);
    for (unsigned t = 0; t < num_threads; ++t) {
        threads.emplace_back([t, &results] {
            for (uint32_t log = min_log; log <= max_log; ++log) {
                const auto table = acquireTwiddles(log);
                unizk_assert(table->logSize == log, "wrong table");
            }
            auto v = randomVector(size_t{1} << max_log, 42);
            nttNR(v);
            cosetInttRN(v, Fp::one());
            results[t] = std::move(v);
        });
    }
    for (auto &th : threads)
        th.join();
    const auto expect = randomVector(size_t{1} << max_log, 42);
    for (unsigned t = 0; t < num_threads; ++t)
        EXPECT_EQ(results[t], expect) << "thread " << t;
}

TEST(NttTwiddles, RegistrySharesAndCachesTables)
{
    clearTwiddleCache();
    setTwiddleCacheEnabled(true);
    const auto a = acquireTwiddles(9);
    const auto b = acquireTwiddles(9);
    EXPECT_EQ(a.get(), b.get()); // cached: same table served twice

    setTwiddleCacheEnabled(false);
    const auto c = acquireTwiddles(9);
    const auto d = acquireTwiddles(9);
    EXPECT_NE(c.get(), d.get()); // disabled: fresh builds per call
    EXPECT_EQ(c->fwd, d->fwd);   // ...with identical contents
    EXPECT_EQ(a->fwd, c->fwd);
    setTwiddleCacheEnabled(true);
}

TEST(Ntt, LinearityProperty)
{
    const size_t n = 128;
    const auto a = randomVector(n, 7);
    const auto b = randomVector(n, 8);
    SplitMix64 rng(9);
    const Fp alpha = randomFp(rng);

    std::vector<Fp> combo(n);
    for (size_t i = 0; i < n; ++i)
        combo[i] = a[i] * alpha + b[i];

    auto fa = a, fb = b;
    nttNR(fa);
    nttNR(fb);
    nttNR(combo);
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(combo[i], fa[i] * alpha + fb[i]);
}

} // namespace
} // namespace unizk
