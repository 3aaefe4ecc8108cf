/**
 * @file
 * Tests for the workload generators: every app must build a satisfiable
 * circuit of the requested size, Starky apps must produce valid traces,
 * the app-name tokens must round-trip, and the end-to-end pipeline
 * (prove on CPU, record trace, simulate UniZK, verify) must succeed for
 * representatives of each protocol.
 */

#include <gtest/gtest.h>

#include "unizk/pipeline.h"

namespace unizk {
namespace {

class AllApps : public ::testing::TestWithParam<AppId>
{};

TEST_P(AllApps, CircuitBuildsAndWitnessSatisfies)
{
    const AppId app = GetParam();
    const PlonkApp instance = buildPlonkApp(app, 256, 2);
    EXPECT_EQ(instance.circuit.rows(), 256u);
    EXPECT_EQ(instance.witnesses.size(), 2u);
    for (const auto &inputs : instance.witnesses) {
        const auto wires = instance.circuit.fillWitness(inputs);
        EXPECT_TRUE(instance.circuit.checkWitness(wires));
    }
}

TEST_P(AllApps, DistinctWitnessesPerRepetition)
{
    const AppId app = GetParam();
    const PlonkApp instance = buildPlonkApp(app, 64, 3);
    EXPECT_NE(instance.witnesses[0], instance.witnesses[1]);
    EXPECT_NE(instance.witnesses[1], instance.witnesses[2]);
}

TEST_P(AllApps, DefaultParamsSane)
{
    const WorkloadParams p = defaultParams(GetParam());
    EXPECT_GE(p.rows, 512u);
    EXPECT_GE(p.repetitions, 1u);
    const WorkloadParams scaled = defaultParams(GetParam(), 2);
    EXPECT_EQ(scaled.rows, p.rows * 4);
}

TEST_P(AllApps, TokenRoundTrips)
{
    EXPECT_EQ(appFromToken(appToken(GetParam()), "test"), GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Apps, AllApps,
    ::testing::Values(AppId::Factorial, AppId::Fibonacci, AppId::Ecdsa,
                      AppId::Sha256, AppId::ImageCrop, AppId::Mvm,
                      AppId::Recursion),
    [](const auto &param_info) {
        std::string name = appName(param_info.param);
        for (auto &c : name)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

// appFromToken is the only app-name parser (unizk_cli, scenario files,
// the examples): display names and near misses must die, never fall
// back to some default app.
TEST(AppTokensDeathTest, UnknownNamesAreFatal)
{
    for (const char *name :
         {"", "Factorial", "SHA-256", "imagecrop", "fib"}) {
        EXPECT_DEATH(appFromToken(name, "--app"),
                     "unknown app.*image-crop")
            << name;
    }
}

TEST(StarkApps, TracesSatisfyTheirAirs)
{
    for (const AppId app :
         {AppId::Factorial, AppId::Fibonacci, AppId::Sha256}) {
        ASSERT_TRUE(hasStarkImplementation(app));
        const StarkApp instance = buildStarkApp(app, 128);
        EXPECT_TRUE(instance.air->checkTrace(instance.trace))
            << appName(app);
    }
}

TEST(StarkApps, NonStarkAppsReport)
{
    EXPECT_FALSE(hasStarkImplementation(AppId::Ecdsa));
    EXPECT_FALSE(hasStarkImplementation(AppId::Mvm));
}

TEST(StarkApps, MvmHasWiderTrace)
{
    // Section 7.1: MVM's circuit width (~400) exceeds the others
    // (~135), which is what improves its bandwidth utilization.
    EXPECT_GT(defaultParams(AppId::Mvm).repetitions,
              defaultParams(AppId::Factorial).repetitions * 2);
}

TEST(Pipeline, Plonky2EndToEnd)
{
    FriConfig cfg = FriConfig::testing();
    const AppRunResult r = runPlonky2App(
        AppId::Fibonacci, 128, 3, cfg, HardwareConfig::paperDefault());
    EXPECT_TRUE(r.verified);
    EXPECT_GT(r.cpuSeconds, 0.0);
    EXPECT_GT(r.sim.totalCycles, 0u);
    EXPECT_GT(r.proofBytes, 0u);
    EXPECT_GT(r.trace.size(), 5u);
    EXPECT_GT(r.speedupVsCpu(), 0.0);
    EXPECT_GT(r.cpuBreakdown.total(), 0.0);
}

TEST(Pipeline, StarkyEndToEnd)
{
    FriConfig cfg = FriConfig::testing();
    cfg.blowupBits = 1;
    cfg.numQueries = 12;
    const AppRunResult r = runStarkyApp(AppId::Factorial, 256, cfg,
                                        HardwareConfig::paperDefault());
    EXPECT_TRUE(r.verified);
    EXPECT_GT(r.sim.totalCycles, 0u);
    EXPECT_GT(r.proofBytes, 0u);
}

TEST(Pipeline, MerkleDominatesCpuBreakdownAtWidth)
{
    // Table 1's headline: Merkle-tree hashing is the largest CPU
    // component once the commitment width is realistic.
    FriConfig cfg = FriConfig::testing();
    cfg.powBits = 0;
    const AppRunResult r = runPlonky2App(
        AppId::Fibonacci, 256, 12, cfg, HardwareConfig::paperDefault(),
        /*verify_proof=*/false);
    EXPECT_GT(r.cpuBreakdown.fraction(KernelClass::MerkleTree), 0.35);
}

TEST(Pipeline, SimulatedUniZkFasterThanCpu)
{
    FriConfig cfg = FriConfig::testing();
    const AppRunResult r = runPlonky2App(
        AppId::Factorial, 512, 8, cfg, HardwareConfig::paperDefault(),
        /*verify_proof=*/false);
    // Even at tiny scale the simulated accelerator should beat a
    // single CPU thread by a wide margin.
    EXPECT_GT(r.speedupVsCpu(), 10.0);
}

} // namespace
} // namespace unizk
