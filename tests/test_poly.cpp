/**
 * @file
 * Tests for the value-vector polynomial kernels: the element-wise
 * product, the running partial products (paper Eq. 2) and their grouped
 * hardware schedule (Fig. 6b), coset points and vanishing values, and
 * batched extension evaluation.
 */

#include <gtest/gtest.h>

#include "common/bits.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "ntt/ntt.h"
#include "poly/polynomial.h"
#include "test_common.h"

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

TEST(VecOps, ElementwiseMatchScalarLoop)
{
    const auto a = randomVector(100, 20);
    const auto b = randomVector(100, 21);
    const auto m = vecMul(a, b);
    ASSERT_EQ(m.size(), a.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(m[i], a[i] * b[i]);
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

TEST(BitReversedCosetPoints, MatchesSerialLoopAtEveryThreadCount)
{
    const Fp shift = defaultCosetShift();
    const unsigned saved = globalThreadCount();
    for (const uint32_t log_size : {3u, 15u}) {
        const size_t size = size_t{1} << log_size;
        const Fp w = Fp::primitiveRootOfUnity(log_size);
        std::vector<Fp> serial(size);
        Fp cur = shift;
        for (size_t j = 0; j < size; ++j) {
            serial[reverseBits(j, log_size)] = cur;
            cur *= w;
        }
        for (const unsigned threads : {1u, 3u, 4u, 8u}) {
            setGlobalThreadCount(threads);
            EXPECT_EQ(bitReversedCosetPoints(size, shift), serial)
                << "size=" << size << " threads=" << threads;
        }
    }
    setGlobalThreadCount(saved);
}

TEST(Vanishing, NonzeroEverywhereOnCoset)
{
    // The coset shift*K avoids H entirely, so Z_H never vanishes there;
    // the quotient computation in Plonk depends on this.
    const auto z = vanishingOnCoset(32, 8, defaultCosetShift());
    for (const auto &v : z)
        EXPECT_FALSE(v.isZero());
}

TEST(EvalEachExt, UniformBatchesMatchHorner)
{
    // Lengths 1 to 3, a lane-ragged length, and lengths on both sides of
    // the power chain's 4096-term chunks; each batch ends in a row of
    // all p - 1. A zero-count batch evaluates nothing.
    SplitMix64 rng(21);
    for (const size_t n : {1u, 2u, 3u, 17u, 4095u, 4096u, 4097u, 9000u}) {
        std::vector<Fp> coeffs = randomVector(2 * n, 22 + n);
        coeffs.insert(coeffs.end(), n, Fp(Fp::modulus - 1));
        const size_t count = 3;
        for (const Fp2 z : {randomFp2(rng), Fp2(Fp(Fp::modulus - 1),
                                                Fp(Fp::modulus - 1)),
                            Fp2::zero()}) {
            const auto got = evalEachExt(coeffs.data(), n, count, z);
            ASSERT_EQ(got.size(), count);
            for (size_t i = 0; i < count; ++i)
                EXPECT_EQ(got[i], horner(coeffs.data() + i * n, n, z))
                    << "n " << n << " poly " << i;
        }
        EXPECT_TRUE(evalEachExt(coeffs.data(), n, 0, Fp2::one()).empty());
    }
}

} // namespace
} // namespace unizk
