/**
 * @file
 * Hardware design exploration: uses the simulator and the area/power
 * model to evaluate custom UniZK configurations on a workload --
 * the Figure 10 methodology exposed as a tool. Prints performance,
 * performance-per-watt, and performance-per-mm^2 for each candidate.
 *
 * Run:  ./examples/hw_design_explorer [--rows 1024] [--app factorial]
 *
 * --app takes the lowercase app tokens (factorial, fibonacci, ecdsa,
 * sha256, image-crop, mvm, recursion).
 */

#include <cstdio>
#include <string>

#include "common/cli.h"
#include "model/area_power.h"
#include "unizk/pipeline.h"

using namespace unizk;

int
main(int argc, char **argv)
{
    const CliOptions cli(argc, argv);
    const size_t rows = cli.getUint("rows", 1024);
    const AppId app =
        appFromToken(cli.getString("app", "factorial"), "--app");

    FriConfig cfg = FriConfig::plonky2();
    cfg.powBits = 8;

    // Generate one proof to capture the kernel trace, then replay it
    // against every candidate design.
    std::printf("capturing kernel trace for %s (%zu rows)...\n",
                appName(app), rows);
    const AppRunResult base = runPlonky2App(
        app, rows, defaultParams(app).repetitions, cfg,
        HardwareConfig::paperDefault(), /*verify_proof=*/false);

    struct Candidate
    {
        const char *name;
        HardwareConfig hw;
    };
    std::vector<Candidate> candidates;
    candidates.push_back({"paper default", HardwareConfig::paperDefault()});
    {
        HardwareConfig hw;
        hw.numVsas = 16;
        hw.scratchpadBytes = 4ull << 20;
        candidates.push_back({"small (16 VSA, 4MB)", hw});
    }
    {
        HardwareConfig hw;
        hw.numVsas = 64;
        hw.scratchpadBytes = 16ull << 20;
        candidates.push_back({"large (64 VSA, 16MB)", hw});
    }
    {
        HardwareConfig hw;
        hw.memBandwidthScale = 2.0;
        candidates.push_back({"2x bandwidth", hw});
    }

    std::printf("\n%-22s %10s %10s %10s %12s %12s\n", "design",
                "time(ms)", "mm^2", "W", "perf/W", "perf/mm^2");
    for (const Candidate &c : candidates) {
        const SimReport r = simulateTrace(base.trace, c.hw);
        const ChipCost cost = estimateChipCost(c.hw, 2);
        const double perf = 1.0 / r.seconds();
        std::printf("%-22s %10.3f %10.1f %10.1f %12.1f %12.1f\n",
                    c.name, r.seconds() * 1e3, cost.totalAreaMm2(),
                    cost.totalPowerW(), perf / cost.totalPowerW(),
                    perf / cost.totalAreaMm2());
    }
    return 0;
}
