/**
 * @file
 * Tests for the sum-check protocol (paper Section 8.1, Algorithm 2):
 * honest round trips, oracle consistency, soundness rejections, and
 * the simulator mapping of the sum-check kernel.
 */

#include <gtest/gtest.h>

#include "common/bits.h"
#include "common/rng.h"
#include "serialize/proof_io.h"
#include "sim/mappers.h"
#include "sumcheck/sumcheck.h"

namespace unizk {
namespace {

std::vector<Fp>
randomTable(uint32_t log_n, uint64_t seed)
{
    SplitMix64 rng(seed);
    std::vector<Fp> v(size_t{1} << log_n);
    for (auto &x : v)
        x = randomFp(rng);
    return v;
}

class SumcheckSizes : public ::testing::TestWithParam<uint32_t>
{};

TEST_P(SumcheckSizes, HonestProofVerifies)
{
    const uint32_t log_n = GetParam();
    const auto table = randomTable(log_n, log_n + 1);

    Challenger prover_ch;
    const SumcheckProof proof = sumcheckProve(table, prover_ch);

    Challenger verifier_ch;
    std::vector<Fp> point;
    ASSERT_TRUE(sumcheckVerify(proof, log_n, verifier_ch, &point));
    ASSERT_EQ(point.size(), log_n);

    // The final claim matches the multilinear extension at the
    // challenge point (the verifier's oracle query).
    EXPECT_EQ(proof.finalEval, multilinearEval(table, point));
}

TEST_P(SumcheckSizes, ClaimedSumIsTableSum)
{
    const uint32_t log_n = GetParam();
    const auto table = randomTable(log_n, log_n + 2);
    Challenger ch;
    const SumcheckProof proof = sumcheckProve(table, ch);
    Fp sum;
    for (const Fp &v : table)
        sum += v;
    EXPECT_EQ(proof.claimedSum, sum);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SumcheckSizes,
                         ::testing::Values(1, 2, 4, 8, 12));

TEST(Sumcheck, TamperedClaimFails)
{
    const auto table = randomTable(6, 3);
    Challenger ch;
    auto proof = sumcheckProve(table, ch);
    proof.claimedSum += Fp::one();
    Challenger vch;
    EXPECT_FALSE(sumcheckVerify(proof, 6, vch));
}

TEST(Sumcheck, TamperedRoundFails)
{
    const auto table = randomTable(6, 4);
    Challenger ch;
    auto proof = sumcheckProve(table, ch);
    proof.rounds[2].at0 += Fp::one();
    Challenger vch;
    EXPECT_FALSE(sumcheckVerify(proof, 6, vch));
}

TEST(Sumcheck, TamperedFinalEvalFails)
{
    const auto table = randomTable(6, 5);
    Challenger ch;
    auto proof = sumcheckProve(table, ch);
    proof.finalEval += Fp::one();
    Challenger vch;
    EXPECT_FALSE(sumcheckVerify(proof, 6, vch));
}

TEST(Sumcheck, WrongRoundCountFails)
{
    const auto table = randomTable(6, 6);
    Challenger ch;
    auto proof = sumcheckProve(table, ch);
    proof.rounds.pop_back();
    Challenger vch;
    EXPECT_FALSE(sumcheckVerify(proof, 6, vch));
}

TEST(Sumcheck, CheatingTableDetectedByOracle)
{
    // A prover proving the sum of a *different* table passes the
    // in-protocol checks but fails the oracle comparison.
    const auto table = randomTable(5, 7);
    auto other = table;
    other[3] += Fp(17); // sum differs, so claimedSum differs too
    Challenger ch;
    const SumcheckProof proof = sumcheckProve(other, ch);

    Challenger vch;
    std::vector<Fp> point;
    ASSERT_TRUE(sumcheckVerify(proof, 5, vch, &point));
    EXPECT_NE(proof.finalEval, multilinearEval(table, point));
}

TEST(Sumcheck, MultilinearEvalAgreesOnHypercube)
{
    const auto table = randomTable(4, 8);
    // At boolean points the extension equals the table.
    for (size_t idx = 0; idx < table.size(); ++idx) {
        std::vector<Fp> point(4);
        for (uint32_t b = 0; b < 4; ++b)
            point[b] = Fp((idx >> b) & 1);
        EXPECT_EQ(multilinearEval(table, point), table[idx]) << idx;
    }
}

TEST(Sumcheck, MultilinearEvalIsLinearPerVariable)
{
    const auto table = randomTable(3, 9);
    SplitMix64 rng(10);
    std::vector<Fp> p0{randomFp(rng), randomFp(rng), randomFp(rng)};
    auto p1 = p0;
    auto pm = p0;
    const Fp r = randomFp(rng);
    p0[1] = Fp(0);
    p1[1] = Fp::one();
    pm[1] = r;
    const Fp v0 = multilinearEval(table, p0);
    const Fp v1 = multilinearEval(table, p1);
    EXPECT_EQ(multilinearEval(table, pm), v0 + r * (v1 - v0));
}

TEST(Sumcheck, ProofSizeIsLogarithmic)
{
    Challenger c1, c2;
    const auto small = sumcheckProve(randomTable(4, 11), c1);
    const auto large = sumcheckProve(randomTable(12, 12), c2);
    EXPECT_EQ(serializeSumcheckProof(large).size() -
                  serializeSumcheckProof(small).size(),
              8 * 2 * (12 - 4)); // two field elements per extra round
}

TEST(Sumcheck, RecordsKernel)
{
    TraceRecorder recorder;
    ProverContext ctx;
    ctx.recorder = &recorder;
    Challenger ch;
    sumcheckProve(randomTable(8, 13), ch, ctx);
    ASSERT_EQ(recorder.trace().size(), 1u);
    EXPECT_STREQ(kernelPayloadName(recorder.trace().ops[0].payload),
                 "sumcheck");
}

TEST(SumcheckMapper, ComputeScalesWithTable)
{
    const HardwareConfig cfg = HardwareConfig::paperDefault();
    const KernelSim small = mapSumCheck(SumCheckKernel{16}, cfg);
    const KernelSim large = mapSumCheck(SumCheckKernel{20}, cfg);
    EXPECT_GT(large.cycles, small.cycles);
    EXPECT_EQ(small.cls, KernelClass::Polynomial);
}

TEST(SumcheckMapper, LargeTablesAreMemoryBound)
{
    const HardwareConfig cfg = HardwareConfig::paperDefault();
    const KernelSim sim = mapSumCheck(SumCheckKernel{24}, cfg);
    EXPECT_GT(sim.mem.cycles, sim.computeCycles);
}

} // namespace
} // namespace unizk
