/**
 * @file
 * Top-level experiment pipeline: build a workload, run the CPU prover
 * with kernel-time instrumentation (Table 1), record the kernel trace,
 * simulate UniZK on it (Tables 3-4, Figures 8-10), and verify the
 * produced proof. This is the public API the examples and all bench
 * harnesses drive.
 */

#ifndef UNIZK_UNIZK_PIPELINE_H
#define UNIZK_UNIZK_PIPELINE_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fri/fri_config.h"
#include "obs/stats_export.h"
#include "plonk/plonk.h"
#include "sim/simulator.h"
#include "stark/stark.h"
#include "workloads/apps.h"

namespace unizk {

/** Outcome of one end-to-end run (CPU proof + UniZK simulation). */
struct AppRunResult
{
    std::string app;
    size_t rows = 0;
    size_t repetitions = 0; ///< Plonk only

    /** Measured single-thread CPU proving time (seconds). */
    double cpuSeconds = 0.0;

    /** CPU time split by kernel class (Table 1). */
    KernelTimeBreakdown cpuBreakdown;

    /** Recorded kernel trace (the compiler frontend's output). */
    KernelTrace trace;

    /** UniZK simulation of the same proof generation. */
    SimReport sim;

    size_t proofBytes = 0;
    bool verified = false;

    /**
     * Canonical serialized proof. Byte-identical across thread counts
     * and with observability on or off (determinism tests compare it).
     */
    std::vector<uint8_t> proofBlob;

    /** UniZK speedup over the measured single-thread CPU. */
    double
    speedupVsCpu() const
    {
        return sim.seconds() > 0 ? cpuSeconds / sim.seconds() : 0.0;
    }
};

/**
 * The paper's multithreaded CPU baseline scales ~10x over one thread
 * (Table 1 vs Table 3: e.g. Factorial 580 s single-thread vs 57.6 s on
 * 80 threads). We report speedups against this modeled parallel CPU so
 * magnitudes are comparable with the paper's Table 3.
 */
constexpr double cpuParallelSpeedup = 10.0;

/**
 * A workload built and ready to prove: the part of a run that depends
 * only on the request shape. A Plonky2 entry also holds the proving
 * key; setup (preprocessing) is offline in Plonky2 and excluded from
 * the measured proving time, like the paper excludes Arithmetization.
 * Nothing in it is mutated by proving, so one instance can serve any
 * number of concurrent provePreparedApp calls.
 */
struct PreparedApp
{
    AppId app = AppId::Factorial;
    size_t rows = 0;        ///< proved rows (Plonky2: padded circuit)
    size_t repetitions = 0; ///< Plonky2 only
    FriConfig cfg;          ///< the configuration setup committed under

    /** Plonky2: circuit and witnesses, with their proving key. */
    std::optional<PlonkApp> plonk;
    PlonkProvingKey key;

    /** Starky: the AET and its AIR. */
    std::optional<StarkApp> stark;

    /**
     * Resident size estimated from the shape: the committed LDE points
     * times their width, the Merkle digests over them, and the
     * row-sized circuit, sigma, witness or trace columns.
     */
    size_t estimatedBytes() const;
};

/** Build @p app's circuit and witnesses and run plonkSetup. */
PreparedApp preparePlonky2App(AppId app, size_t rows, size_t repetitions,
                              const FriConfig &cfg);

/** Build @p app's AET; Starky has no setup. */
PreparedApp prepareStarkyApp(AppId app, size_t rows,
                             const FriConfig &cfg);

/**
 * Prove a prepared app with kernel-time instrumentation, record the
 * kernel trace, simulate UniZK on it, serialize and (if asked) verify
 * the proof.
 */
AppRunResult provePreparedApp(const PreparedApp &prepared,
                              const HardwareConfig &hw,
                              bool verify_proof = true);

/** Prove @p app under Plonky2 configuration and simulate UniZK. */
AppRunResult runPlonky2App(AppId app, size_t rows, size_t repetitions,
                           const FriConfig &cfg,
                           const HardwareConfig &hw,
                           bool verify_proof = true);

/** Prove @p app under Starky configuration and simulate UniZK. */
AppRunResult runStarkyApp(AppId app, size_t rows, const FriConfig &cfg,
                          const HardwareConfig &hw,
                          bool verify_proof = true);

/**
 * Package a run for the stats exporter. @p protocol is "plonky2" or
 * "starky"; @p threads the thread count the run used.
 */
obs::RunStats toRunStats(const AppRunResult &result,
                         const std::string &protocol, unsigned threads);

} // namespace unizk

#endif // UNIZK_UNIZK_PIPELINE_H
