/**
 * @file
 * Tests for the polynomial library, including the quotient-chunk
 * partial products (paper Eq. 1-2) and the grouped hardware schedule
 * (Fig. 6b).
 */

#include <gtest/gtest.h>

#include "common/bits.h"
#include "common/rng.h"
#include "ntt/ntt.h"
#include "poly/polynomial.h"

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

Polynomial
randomPoly(size_t deg, uint64_t seed)
{
    auto c = randomVector(deg + 1, seed);
    if (c.back().isZero())
        c.back() = Fp::one();
    return Polynomial(std::move(c));
}

TEST(Polynomial, EvalHorner)
{
    // p(x) = 3 + 2x + x^2
    const Polynomial p(std::vector<Fp>{Fp(3), Fp(2), Fp(1)});
    EXPECT_EQ(p.eval(Fp(0)), Fp(3));
    EXPECT_EQ(p.eval(Fp(1)), Fp(6));
    EXPECT_EQ(p.eval(Fp(10)), Fp(123));
}

TEST(Polynomial, DegreeAndTrim)
{
    const Polynomial p(std::vector<Fp>{Fp(1), Fp(0), Fp(0)});
    EXPECT_EQ(p.degree(), 0u);
    EXPECT_TRUE(Polynomial().isZero());
    EXPECT_TRUE(Polynomial(std::vector<Fp>{Fp(0)}).isZero());
}

TEST(Polynomial, AddSubEvalConsistency)
{
    const auto p = randomPoly(7, 1);
    const auto q = randomPoly(4, 2);
    SplitMix64 rng(3);
    const Fp x = randomFp(rng);
    EXPECT_EQ((p + q).eval(x), p.eval(x) + q.eval(x));
    EXPECT_EQ((p - q).eval(x), p.eval(x) - q.eval(x));
}

TEST(Polynomial, MulSchoolbookVsEval)
{
    const auto p = randomPoly(5, 4);
    const auto q = randomPoly(6, 5);
    const auto r = p * q;
    EXPECT_EQ(r.degree(), p.degree() + q.degree());
    SplitMix64 rng(6);
    for (int i = 0; i < 10; ++i) {
        const Fp x = randomFp(rng);
        EXPECT_EQ(r.eval(x), p.eval(x) * q.eval(x));
    }
}

TEST(Polynomial, MulLargeUsesNttAndMatchesSchoolbook)
{
    // Force the NTT path (deg sum >= 64) and cross-check by evaluation.
    const auto p = randomPoly(70, 7);
    const auto q = randomPoly(80, 8);
    const auto r = p * q;
    EXPECT_EQ(r.degree(), 150u);
    SplitMix64 rng(9);
    for (int i = 0; i < 10; ++i) {
        const Fp x = randomFp(rng);
        EXPECT_EQ(r.eval(x), p.eval(x) * q.eval(x));
    }
}

TEST(Polynomial, MulByZero)
{
    const auto p = randomPoly(5, 10);
    EXPECT_TRUE((p * Polynomial()).isZero());
}

TEST(Polynomial, DivideByLinearExact)
{
    // p(X) = (X - z) * q(X) has remainder 0 and quotient q.
    const auto q = randomPoly(6, 11);
    const Fp z(12345);
    const Polynomial lin(std::vector<Fp>{z.neg(), Fp::one()});
    const auto p = q * lin;
    Fp rem;
    const auto quot = p.divideByLinear(z, &rem);
    EXPECT_TRUE(rem.isZero());
    EXPECT_EQ(quot, q);
}

TEST(Polynomial, DivideByLinearRemainderIsEval)
{
    const auto p = randomPoly(9, 12);
    const Fp z(999);
    Fp rem;
    p.divideByLinear(z, &rem);
    EXPECT_EQ(rem, p.eval(z));
}

TEST(Polynomial, LongDivideRoundTrip)
{
    const auto a = randomPoly(11, 13);
    const auto d = randomPoly(4, 14);
    Polynomial rem;
    const auto q = a.longDivide(d, &rem);
    EXPECT_EQ(q * d + rem, a);
    EXPECT_LT(rem.degree(), d.degree());
}

TEST(Polynomial, LongDivideByHigherDegree)
{
    const auto a = randomPoly(3, 15);
    const auto d = randomPoly(8, 16);
    Polynomial rem;
    const auto q = a.longDivide(d, &rem);
    EXPECT_TRUE(q.isZero());
    EXPECT_EQ(rem, a);
}

TEST(Polynomial, InterpolateRoundTrip)
{
    const auto p = randomPoly(6, 17);
    std::vector<Fp> xs, ys;
    for (uint64_t i = 1; i <= 7; ++i) {
        xs.push_back(Fp(i * 1000));
        ys.push_back(p.eval(Fp(i * 1000)));
    }
    EXPECT_EQ(Polynomial::interpolate(xs, ys), p);
}

TEST(Polynomial, MonomialAndConstant)
{
    const auto m = Polynomial::monomial(Fp(5), 3);
    EXPECT_EQ(m.eval(Fp(2)), Fp(40));
    EXPECT_EQ(Polynomial::constant(Fp(9)).eval(Fp(77)), Fp(9));
}

TEST(VecOps, ElementwiseMatchScalarLoop)
{
    const auto a = randomVector(100, 20);
    const auto b = randomVector(100, 21);
    const auto s = vecAdd(a, b);
    const auto d = vecSub(a, b);
    const auto m = vecMul(a, b);
    const auto sc = vecScale(a, Fp(3));
    const auto as = vecAddScalar(a, Fp(7));
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(s[i], a[i] + b[i]);
        EXPECT_EQ(d[i], a[i] - b[i]);
        EXPECT_EQ(m[i], a[i] * b[i]);
        EXPECT_EQ(sc[i], a[i] * Fp(3));
        EXPECT_EQ(as[i], a[i] + Fp(7));
    }
}

TEST(PartialProducts, ChunkProductsMatchDirect)
{
    const auto q = randomVector(64, 22);
    const auto h = quotientChunkProducts(q, 8);
    ASSERT_EQ(h.size(), 8u);
    for (size_t i = 0; i < h.size(); ++i) {
        Fp acc = Fp::one();
        for (size_t j = 0; j < 8; ++j)
            acc *= q[8 * i + j];
        EXPECT_EQ(h[i], acc);
    }
}

TEST(PartialProducts, RunningProducts)
{
    const auto h = randomVector(33, 23);
    const auto pp = partialProducts(h);
    Fp acc = Fp::one();
    for (size_t i = 0; i < h.size(); ++i) {
        acc *= h[i];
        EXPECT_EQ(pp[i], acc);
    }
}

class GroupedPartialProducts
    : public ::testing::TestWithParam<std::pair<size_t, size_t>>
{};

TEST_P(GroupedPartialProducts, MatchesSerial)
{
    const auto [len, group] = GetParam();
    const auto h = randomVector(len, len * 7 + group);
    EXPECT_EQ(partialProductsGrouped(h, group), partialProducts(h));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GroupedPartialProducts,
    ::testing::Values(std::make_pair<size_t, size_t>(256, 32),  // paper n=32
                      std::make_pair<size_t, size_t>(100, 32),  // ragged tail
                      std::make_pair<size_t, size_t>(32, 32),   // single group
                      std::make_pair<size_t, size_t>(7, 3),
                      std::make_pair<size_t, size_t>(1, 4)));

TEST(Vanishing, MatchesDirectEvaluation)
{
    // One value per block of n stored points of the bit-reversed coset.
    const size_t n = 16;
    const uint32_t blowup = 4;
    const Fp shift = defaultCosetShift();
    const auto z = vanishingOnCoset(n, blowup, shift);
    ASSERT_EQ(z.size(), blowup);
    const auto xs = bitReversedCosetPoints(n * blowup, shift);
    for (size_t s = 0; s < xs.size(); ++s)
        EXPECT_EQ(z[s / n], xs[s].pow(n) - Fp::one()) << "stored " << s;
}

TEST(BitReversedCosetPoints, StoresPointRevS)
{
    const Fp shift = defaultCosetShift();
    const auto xs = bitReversedCosetPoints(64, shift);
    const Fp w = Fp::primitiveRootOfUnity(6);
    for (size_t s = 0; s < xs.size(); ++s)
        EXPECT_EQ(xs[s], shift * w.pow(reverseBits(s, 6))) << s;
}

TEST(Vanishing, NonzeroEverywhereOnCoset)
{
    // The coset shift*K avoids H entirely, so Z_H never vanishes there;
    // the quotient computation in Plonk depends on this.
    const auto z = vanishingOnCoset(32, 8, defaultCosetShift());
    for (const auto &v : z)
        EXPECT_FALSE(v.isZero());
}

TEST(EvalEachExt, RaggedLengthsMatchHorner)
{
    // Lengths 0 and 1, lane-ragged lengths, and lengths on both sides
    // of the power chain's 4096-term chunks, in one call.
    SplitMix64 rng(21);
    std::vector<std::vector<Fp>> coeffs;
    for (const size_t len :
         {0u, 1u, 2u, 3u, 17u, 4095u, 4096u, 4097u, 9000u, 1u, 0u})
        coeffs.push_back(randomVector(len, 22 + len));
    coeffs.emplace_back(300, Fp(Fp::modulus - 1));
    for (const Fp2 z : {randomFp2(rng), Fp2(Fp(Fp::modulus - 1),
                                            Fp(Fp::modulus - 1)),
                        Fp2::zero()}) {
        const auto got = evalEachExt(coeffs, z);
        ASSERT_EQ(got.size(), coeffs.size());
        for (size_t i = 0; i < coeffs.size(); ++i) {
            Fp2 horner;
            for (size_t k = coeffs[i].size(); k-- > 0;)
                horner = horner * z + Fp2(coeffs[i][k]);
            EXPECT_EQ(got[i], horner) << "poly " << i;
        }
    }
    EXPECT_TRUE(evalEachExt({}, Fp2::one()).empty());
}

} // namespace
} // namespace unizk
