/**
 * @file
 * Unit and property tests for Goldilocks base-field and quadratic
 * extension-field arithmetic, and differential tests of the lazily
 * reduced lane layer against them at every SIMD level.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "field/extension.h"
#include "field/goldilocks.h"
#include "field/goldilocks_simd.h"

namespace unizk {
namespace {

TEST(Goldilocks, Constants)
{
    EXPECT_EQ(Fp::modulus, 0xFFFFFFFF00000001ULL);
    // p - 1 = 2^32 * 3 * 5 * 17 * 257 * 65537
    const uint64_t odd = 0xFFFFFFFFULL;
    EXPECT_EQ((Fp::modulus - 1) >> 32, odd);
    EXPECT_EQ(odd, 3ULL * 5 * 17 * 257 * 65537);
}

TEST(Goldilocks, CanonicalConstruction)
{
    EXPECT_EQ(Fp(Fp::modulus).value(), 0u);
    EXPECT_EQ(Fp(Fp::modulus + 5).value(), 5u);
    EXPECT_EQ(Fp(~0ULL).value(), ~0ULL - Fp::modulus);
}

TEST(Goldilocks, AddSubEdgeCases)
{
    const Fp max(Fp::modulus - 1);
    EXPECT_EQ((max + Fp::one()).value(), 0u);
    EXPECT_EQ((max + max).value(), Fp::modulus - 2);
    EXPECT_EQ((Fp::zero() - Fp::one()).value(), Fp::modulus - 1);
    EXPECT_EQ((Fp::one() - max), Fp(2));
}

TEST(Goldilocks, MulKnownValues)
{
    // (p-1)^2 = p^2 - 2p + 1 === 1 (mod p)
    const Fp max(Fp::modulus - 1);
    EXPECT_EQ(max * max, Fp::one());
    // 2^32 * 2^32 = 2^64 === 2^32 - 1
    const Fp two32(uint64_t{1} << 32);
    EXPECT_EQ((two32 * two32).value(), (uint64_t{1} << 32) - 1);
    // 2^32 * 2^64: 2^96 === -1
    const Fp two64 = two32 * two32;
    EXPECT_EQ(two64 * two32, Fp(Fp::modulus - 1));
}

TEST(Goldilocks, FieldAxiomsRandomized)
{
    SplitMix64 rng(123);
    for (int i = 0; i < 200; ++i) {
        const Fp a = randomFp(rng);
        const Fp b = randomFp(rng);
        const Fp c = randomFp(rng);
        EXPECT_EQ(a + b, b + a);
        EXPECT_EQ(a * b, b * a);
        EXPECT_EQ((a + b) + c, a + (b + c));
        EXPECT_EQ((a * b) * c, a * (b * c));
        EXPECT_EQ(a * (b + c), a * b + a * c);
        EXPECT_EQ(a - a, Fp::zero());
        EXPECT_EQ(a + a.neg(), Fp::zero());
    }
}

TEST(Goldilocks, InverseRandomized)
{
    SplitMix64 rng(456);
    for (int i = 0; i < 100; ++i) {
        Fp a = randomFp(rng);
        if (a.isZero())
            continue;
        EXPECT_EQ(a * a.inverse(), Fp::one());
    }
}

TEST(Goldilocks, PowMatchesRepeatedMul)
{
    SplitMix64 rng(789);
    const Fp a = randomFp(rng);
    Fp acc = Fp::one();
    for (uint64_t e = 0; e < 20; ++e) {
        EXPECT_EQ(a.pow(e), acc);
        acc *= a;
    }
}

TEST(Goldilocks, PrimitiveRootsHaveExactOrder)
{
    for (uint32_t k : {0u, 1u, 2u, 5u, 16u, 32u}) {
        const Fp w = Fp::primitiveRootOfUnity(k);
        EXPECT_EQ(w.pow(uint64_t{1} << k), Fp::one()) << "k=" << k;
        if (k > 0) {
            EXPECT_NE(w.pow(uint64_t{1} << (k - 1)), Fp::one())
                << "k=" << k;
        }
    }
}

TEST(Goldilocks, KnownTwoAdicGenerator)
{
    // 7^((p-1)/2^32) -- matches Plonky2's POWER_OF_TWO_GENERATOR.
    const Fp w = Fp::primitiveRootOfUnity(32);
    EXPECT_EQ(w.value(), 0x185629DCDA58878CULL);
}

TEST(Goldilocks, BatchInverseMatchesScalar)
{
    SplitMix64 rng(42);
    std::vector<Fp> xs;
    for (int i = 0; i < 50; ++i) {
        Fp x = randomFp(rng);
        if (x.isZero())
            x = Fp::one();
        xs.push_back(x);
    }
    auto inv = xs;
    batchInverse(inv);
    for (size_t i = 0; i < xs.size(); ++i)
        EXPECT_EQ(xs[i] * inv[i], Fp::one());
}

TEST(Goldilocks, BatchInverseEmptyOk)
{
    std::vector<Fp> xs;
    batchInverse(xs);
    EXPECT_TRUE(xs.empty());
}

TEST(Extension, SevenIsNonResidue)
{
    // 7^((p-1)/2) must be -1 for X^2-7 to be irreducible.
    const Fp legendre = Fp(7).pow((Fp::modulus - 1) / 2);
    EXPECT_EQ(legendre, Fp(Fp::modulus - 1));
}

TEST(Extension, FieldAxiomsRandomized)
{
    SplitMix64 rng(321);
    for (int i = 0; i < 100; ++i) {
        const Fp2 a = randomFp2(rng);
        const Fp2 b = randomFp2(rng);
        const Fp2 c = randomFp2(rng);
        EXPECT_EQ(a * b, b * a);
        EXPECT_EQ((a * b) * c, a * (b * c));
        EXPECT_EQ(a * (b + c), a * b + a * c);
        EXPECT_EQ(a - a, Fp2::zero());
    }
}

TEST(Extension, InverseRandomized)
{
    SplitMix64 rng(654);
    for (int i = 0; i < 50; ++i) {
        const Fp2 a = randomFp2(rng);
        if (a.isZero())
            continue;
        EXPECT_EQ(a * a.inverse(), Fp2::one());
    }
}

TEST(Extension, SquareRootOfSevenIsX)
{
    // X * X = 7 in F_p[X]/(X^2-7).
    const Fp2 x(Fp::zero(), Fp::one());
    EXPECT_EQ(x * x, Fp2(Fp(7)));
}

TEST(Extension, EmbeddingIsHomomorphic)
{
    SplitMix64 rng(987);
    for (int i = 0; i < 50; ++i) {
        const Fp a = randomFp(rng);
        const Fp b = randomFp(rng);
        EXPECT_EQ(Fp2(a) * Fp2(b), Fp2(a * b));
        EXPECT_EQ(Fp2(a) + Fp2(b), Fp2(a + b));
    }
}

TEST(Extension, FrobeniusViaPow)
{
    // a^(p^2) == a for all a (multiplicative group order p^2 - 1).
    SplitMix64 rng(555);
    const Fp2 a = randomFp2(rng);
    // a^(p^2-1) == 1  =>  check via (a^p)^p * a^0 ... use pow by p twice.
    Fp2 ap = a.pow(Fp::modulus);
    Fp2 app = ap.pow(Fp::modulus);
    EXPECT_EQ(app, a);
}

// ---- Lane layer (field/goldilocks_simd.h): every lazy op at every
// available level, against scalar Fp arithmetic on the residues and
// against the scalar lazy formulas bit for bit.

std::vector<SimdLevel>
availableLevels()
{
    std::vector<SimdLevel> levels{SimdLevel::Scalar};
    if (simdLevelAvailable(SimdLevel::Avx2))
        levels.push_back(SimdLevel::Avx2);
    return levels;
}

/**
 * Lane operands: the edge values 0, 1, 2^32 - 1, 2^32, p - 1 and
 * 2^64 - 1, non-canonical values in [p, 2^64), and random 64-bit words.
 */
std::vector<uint64_t>
laneOperands()
{
    const uint64_t p = Fp::modulus;
    std::vector<uint64_t> v{0,
                            1,
                            0xFFFFFFFFULL,
                            0x100000000ULL,
                            0x8000000000000000ULL,
                            p - 1,
                            p,
                            p + 1,
                            p + 0xFFFFFFFEULL,
                            ~0ULL - 1,
                            ~0ULL};
    SplitMix64 rng(77);
    for (int i = 0; i < 21; ++i)
        v.push_back(rng.next());
    return v;
}

/** The canonical subset of laneOperands() (constants must be). */
std::vector<uint64_t>
canonicalOperands()
{
    std::vector<uint64_t> out;
    for (const uint64_t x : laneOperands())
        if (x < Fp::modulus)
            out.push_back(x);
    return out;
}

/** Run @p check over every 4-lane window of @p xs paired with @p ys. */
template <typename Check>
void
forLaneWindows(const std::vector<uint64_t> &xs,
               const std::vector<uint64_t> &ys, Check check)
{
    for (size_t i = 0; i < xs.size(); ++i) {
        for (size_t j = 0; j < ys.size(); ++j) {
            uint64_t a[kSimdBatchWidth], b[kSimdBatchWidth];
            for (size_t k = 0; k < kSimdBatchWidth; ++k) {
                a[k] = xs[(i + k) % xs.size()];
                b[k] = ys[(j + 3 * k) % ys.size()];
            }
            check(a, b);
        }
    }
}

TEST(LaneOps, MulSquareMatchFpAtEveryLevel)
{
    for (const SimdLevel level : availableLevels()) {
        const LaneKernels &lanes = laneKernels(level);
        const auto ops = laneOperands();
        forLaneWindows(ops, ops, [&](const uint64_t *a, const uint64_t *b) {
            uint64_t prod[kSimdBatchWidth], sq[kSimdBatchWidth];
            lanes.mul(a, b, prod);
            lanes.square(a, sq);
            for (size_t k = 0; k < kSimdBatchWidth; ++k) {
                EXPECT_EQ(prod[k], lazy::mul(a[k], b[k]))
                    << simdLevelName(level);
                EXPECT_EQ(Fp(prod[k]), Fp(a[k]) * Fp(b[k]))
                    << simdLevelName(level) << " a=" << a[k]
                    << " b=" << b[k];
                EXPECT_EQ(sq[k], lazy::mul(a[k], a[k]))
                    << simdLevelName(level) << " a=" << a[k];
            }
        });
    }
}

TEST(LaneOps, AddSubWithCanonicalOperandMatchFp)
{
    for (const SimdLevel level : availableLevels()) {
        const LaneKernels &lanes = laneKernels(level);
        forLaneWindows(
            laneOperands(), canonicalOperands(),
            [&](const uint64_t *a, const uint64_t *c) {
                uint64_t sum[kSimdBatchWidth], diff[kSimdBatchWidth];
                lanes.add(a, c, sum);
                lanes.sub(a, c, diff);
                for (size_t k = 0; k < kSimdBatchWidth; ++k) {
                    EXPECT_EQ(sum[k], lazy::add(a[k], c[k]));
                    EXPECT_EQ(diff[k], lazy::sub(a[k], c[k]));
                    EXPECT_EQ(Fp(sum[k]), Fp(a[k]) + Fp(c[k]))
                        << simdLevelName(level) << " a=" << a[k]
                        << " c=" << c[k];
                    EXPECT_EQ(Fp(diff[k]), Fp(a[k]) - Fp(c[k]))
                        << simdLevelName(level) << " a=" << a[k]
                        << " b=" << c[k];
                    // Canonical inputs stay canonical under sub.
                    if (a[k] < Fp::modulus) {
                        EXPECT_LT(diff[k], Fp::modulus);
                    }
                }
            });
    }
}

TEST(LaneOps, FusedMulAddMatchesFp)
{
    for (const SimdLevel level : availableLevels()) {
        const LaneKernels &lanes = laneKernels(level);
        const auto ops = laneOperands();
        for (const uint64_t addend : ops) {
            forLaneWindows(ops, ops,
                           [&](const uint64_t *b, const uint64_t *c) {
                               uint64_t a[kSimdBatchWidth];
                               uint64_t out[kSimdBatchWidth];
                               for (auto &x : a)
                                   x = addend;
                               lanes.mulAdd(a, b, c, out);
                               for (size_t k = 0; k < kSimdBatchWidth;
                                    ++k) {
                                   ASSERT_EQ(out[k],
                                             lazy::mulAdd(a[k], b[k], c[k]));
                                   ASSERT_EQ(Fp(out[k]),
                                             Fp(a[k]) + Fp(b[k]) * Fp(c[k]))
                                       << simdLevelName(level);
                               }
                           });
        }
    }
}

TEST(LaneOps, CanonicalizeIsExact)
{
    for (const SimdLevel level : availableLevels()) {
        const LaneKernels &lanes = laneKernels(level);
        const auto ops = laneOperands();
        forLaneWindows(ops, ops, [&](const uint64_t *a, const uint64_t *) {
            uint64_t out[kSimdBatchWidth];
            lanes.canonical(a, out);
            for (size_t k = 0; k < kSimdBatchWidth; ++k)
                EXPECT_EQ(out[k], Fp(a[k]).value()) << simdLevelName(level);
        });
    }
}

TEST(LaneOps, LimbSplitRoundTrips)
{
    for (const uint64_t x : canonicalOperands()) {
        const FpLimbs l = FpLimbs::split(Fp(x));
        EXPECT_LT(l.l0, 1u << 22);
        EXPECT_LT(l.l1, 1u << 22);
        EXPECT_LT(l.l2, 1u << 20);
        EXPECT_EQ(l.value(), x);
    }
}

/** sum_j row[j] * x[j] over residues, the dot() oracle. */
Fp
fpDotOfLanes(const std::vector<Fp> &row, const uint64_t *x, size_t n,
             size_t lane)
{
    Fp acc;
    for (size_t j = 0; j < n; ++j)
        acc += row[j] * Fp(x[j * kSimdBatchWidth + lane]);
    return acc;
}

TEST(LaneOps, DotMatchesFpOnEdgeRowsAndLanes)
{
    // Rows: all p - 1 (every limb at its maximum), all 2^64 - 2^32
    // (the largest canonical high half) and a random row; lanes: every
    // operand, canonical or not, at every length up to the maximum.
    const size_t max = kLaneDotMaxTerms;
    SplitMix64 rng(5);
    std::vector<std::vector<Fp>> rows{
        std::vector<Fp>(max, Fp(Fp::modulus - 1)),
        std::vector<Fp>(max, Fp(0xFFFFFFFF00000000ULL)),
        std::vector<Fp>(max)};
    for (auto &c : rows.back())
        c = randomFp(rng);

    const auto ops = laneOperands();
    for (const SimdLevel level : availableLevels()) {
        const LaneKernels &lanes = laneKernels(level);
        for (const auto &row : rows) {
            std::vector<FpLimbs> limbs;
            for (const Fp c : row)
                limbs.push_back(FpLimbs::split(c));
            for (size_t n = 1; n <= max; ++n) {
                for (size_t s = 0; s < ops.size(); ++s) {
                    // Lane k of term j: all-max lanes for s == 0,
                    // otherwise a walk through the operands.
                    uint64_t x[kLaneDotMaxTerms * kSimdBatchWidth];
                    for (size_t j = 0; j < n; ++j)
                        for (size_t k = 0; k < kSimdBatchWidth; ++k)
                            x[j * kSimdBatchWidth + k] =
                                s == 0 ? ~0ULL
                                       : ops[(s + j * 5 + k * 7) % ops.size()];
                    uint64_t out[kSimdBatchWidth];
                    lanes.dot(limbs.data(), x, n, out);
                    for (size_t k = 0; k < kSimdBatchWidth; ++k)
                        ASSERT_EQ(Fp(out[k]), fpDotOfLanes(row, x, n, k))
                            << simdLevelName(level) << " n=" << n
                            << " s=" << s << " lane=" << k;
                }
            }
        }
    }
}

TEST(LaneOps, ScalingKernelsMatchFpAtEveryLength)
{
    // Every length 0..13 covers whole groups and each padded tail.
    SplitMix64 rng(9);
    const Fp c = randomFp(rng);
    const Fp step = randomFp(rng);
    for (const SimdLevel level : availableLevels()) {
        const LaneKernels &lanes = laneKernels(level);
        for (size_t n = 0; n <= 13; ++n) {
            std::vector<Fp> a(n + 1), pows(n + 1);
            for (size_t i = 0; i < n; ++i) {
                a[i] = randomFp(rng);
                pows[i] = randomFp(rng);
            }
            const Fp guard = a[n]; // one past the end stays untouched

            auto scaled = a;
            lanes.scale(scaled.data(), n, c);
            auto tabled = a;
            lanes.scaleByTable(tabled.data(), pows.data(), c, n);
            auto tabled_one = a;
            lanes.scaleByTable(tabled_one.data(), pows.data(), Fp::one(),
                               n);
            const Fp start[kSimdBatchWidth] = {c, c * step,
                                               c * step * step,
                                               c * step * step * step};
            std::vector<Fp> chained(n + 1, guard);
            lanes.scaleByPowers(chained.data(), a.data(), n, start,
                                step.pow(kSimdBatchWidth));

            Fp p = c;
            for (size_t i = 0; i < n; ++i) {
                EXPECT_EQ(scaled[i], a[i] * c) << simdLevelName(level);
                EXPECT_EQ(tabled[i], a[i] * pows[i] * c);
                EXPECT_EQ(tabled_one[i], a[i] * pows[i]);
                EXPECT_EQ(chained[i], a[i] * p) << simdLevelName(level);
                p *= step;
            }
            EXPECT_EQ(scaled[n], guard);
            EXPECT_EQ(tabled[n], guard);
            EXPECT_EQ(chained[n], guard);
        }
    }
}

TEST(LaneOps, ButterflyRunsMatchFpAtEveryLength)
{
    SplitMix64 rng(10);
    for (const SimdLevel level : availableLevels()) {
        const LaneKernels &lanes = laneKernels(level);
        for (size_t n = 0; n <= 13; ++n) {
            std::vector<Fp> lo(n + 1), hi(n + 1), tw(n);
            for (size_t i = 0; i <= n; ++i) {
                lo[i] = randomFp(rng);
                hi[i] = randomFp(rng);
            }
            for (auto &w : tw)
                w = randomFp(rng);
            auto dif_lo = lo, dif_hi = hi, dit_lo = lo, dit_hi = hi;
            lanes.difRun(dif_lo.data(), dif_hi.data(), tw.data(), n);
            lanes.ditRun(dit_lo.data(), dit_hi.data(), tw.data(), n);
            for (size_t j = 0; j < n; ++j) {
                EXPECT_EQ(dif_lo[j], lo[j] + hi[j]) << simdLevelName(level);
                EXPECT_EQ(dif_hi[j], (lo[j] - hi[j]) * tw[j]);
                EXPECT_EQ(dit_lo[j], lo[j] + hi[j] * tw[j]);
                EXPECT_EQ(dit_hi[j], lo[j] - hi[j] * tw[j]);
            }
            EXPECT_EQ(dif_lo[n], lo[n]);
            EXPECT_EQ(dif_hi[n], hi[n]);
            EXPECT_EQ(dit_lo[n], lo[n]);
            EXPECT_EQ(dit_hi[n], hi[n]);
        }
    }
}

// ---- fpDot: the scalar lazily reduced dot product. Its callers pass
// rows from one term to 2^16 terms, so the 2^128-wrap fix-up runs on
// long rows; each case is checked against a canonical Fp loop.

/** sum_j a[j] * b[j], reducing every product and sum. */
Fp
canonicalDot(const std::vector<Fp> &a, const std::vector<Fp> &b, size_t n)
{
    Fp acc;
    for (size_t j = 0; j < n; ++j)
        acc += a[j] * b[j];
    return acc;
}

TEST(FpDot, MatchesCanonicalLoopOnLongRows)
{
    const Fp max(Fp::modulus - 1);
    SplitMix64 rng(31);
    for (const size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{3},
                           size_t{17}, size_t{192}, size_t{1} << 16}) {
        std::vector<Fp> all_max(n, max), rand_a(n), rand_b(n), mixed(n);
        for (size_t j = 0; j < n; ++j) {
            rand_a[j] = randomFp(rng);
            rand_b[j] = randomFp(rng);
            // Runs of p - 1 (wrapping every other add) between random
            // terms and zeros.
            mixed[j] = j % 5 < 3 ? max : (j % 5 == 3 ? Fp() : rand_b[j]);
        }
        const std::vector<std::pair<const std::vector<Fp> *,
                                    const std::vector<Fp> *>>
            cases{{&all_max, &all_max}, {&rand_a, &rand_b},
                  {&mixed, &all_max},   {&all_max, &mixed},
                  {&rand_a, &mixed},    {&mixed, &mixed}};
        for (size_t c = 0; c < cases.size(); ++c) {
            const auto &a = *cases[c].first;
            const auto &b = *cases[c].second;
            EXPECT_EQ(fpDot(a.data(), b.data(), n), canonicalDot(a, b, n))
                << "n=" << n << " case=" << c;
        }
    }
}

TEST(FpDot, WrapCountNearItsLargestRows)
{
    // (p - 1)^2 = 2^128 - 2^97 + 2^64, so nearly every add of an
    // all-(p - 1) row wraps a 128-bit accumulator, and (p - 1)^2 = 1
    // mod p gives the closed form sum = n: every length up to 300 and
    // long rows around 2^16, without the O(n) oracle.
    const Fp max(Fp::modulus - 1);
    std::vector<Fp> row(size_t{1} << 17, max);
    for (size_t n = 0; n <= 300; ++n)
        ASSERT_EQ(fpDot(row.data(), row.data(), n),
                  Fp(static_cast<uint64_t>(n)))
            << n;
    for (const size_t n : {size_t{1} << 15, (size_t{1} << 16) - 1,
                           size_t{1} << 16, (size_t{1} << 16) + 1,
                           size_t{1} << 17})
        EXPECT_EQ(fpDot(row.data(), row.data(), n),
                  Fp(static_cast<uint64_t>(n)))
            << n;
}

} // namespace
} // namespace unizk
