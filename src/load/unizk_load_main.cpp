/**
 * @file
 * unizk_load: YCSB-style traffic generator for the unizkd service.
 *
 *   unizk_load --socket /tmp/unizkd.sock --scenario uniform-closed \
 *              [--seed N] [--requests N] [--connections N] \
 *              [--rate RPS] [--theta T] [--keyspace N] \
 *              [--report FILE] [--schedule-out FILE] [--dry-run] \
 *              [--check] [--list-scenarios] [--threads N]
 *
 * A scenario (built-in name via --scenario, or a file via
 * --scenario-file; see src/load/scenario.h for the format) is expanded
 * into a byte-deterministic request schedule from --seed (default: the
 * UNIZK_LOAD_SEED environment variable, then 1), then driven against
 * the daemon. --report writes the `unizk-load-v1` JSON document
 * (validated by tools/load/validate_load_json.py); --dry-run stops
 * after generation and prints the schedule fingerprint, which is how
 * the load smoke asserts seed-determinism without a daemon.
 *
 * --check proves every distinct request shape of the schedule in
 * process before any load runs (the prover lanes' own path,
 * service::runRequest) and byte-compares each served proof against its
 * key's reference; a mismatch counts as an error.
 *
 * Exits 0 iff every issued request was answered without a transport or
 * protocol error (or --check mismatch); queue-full / shutting-down
 * rejections are expected backpressure and never fail the run.
 */

#include <cstdio>
#include <string>

#include "common/cli.h"
#include "common/env.h"
#include "common/logging.h"
#include "load/generator.h"
#include "load/runner.h"
#include "load/scenario.h"
#include "obs/json_writer.h"
#include "obs/obs.h"

namespace {

using namespace unizk;

uint64_t
defaultSeed()
{
    // Strict parse: "7abc" in the environment warns and falls back
    // instead of silently meaning 7.
    if (const auto env = envUint("UNIZK_LOAD_SEED", 0, ~uint64_t{0}))
        return *env;
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions cli(argc, argv);
    applyGlobalCliOptions(cli);

    if (cli.has("list-scenarios")) {
        for (const load::Scenario &s : load::builtinScenarios()) {
            std::printf("%-16s %-12s %-8s %llu requests, %llu keys\n",
                        s.name.c_str(), load::arrivalName(s.arrival),
                        load::skewName(s.skew),
                        static_cast<unsigned long long>(s.requests),
                        static_cast<unsigned long long>(s.keySpace));
        }
        return 0;
    }

    const std::string scenario_file =
        cli.getString("scenario-file", "");
    load::Scenario scenario =
        !scenario_file.empty()
            ? load::parseScenarioFile(scenario_file)
            : load::builtinScenario(
                  cli.getString("scenario", "uniform-closed"));

    // CLI overrides re-validate: "--requests 0" must die like a bad
    // scenario file, not generate an empty run.
    scenario.requests = cli.getUint("requests", scenario.requests);
    scenario.connections =
        cli.getUint("connections", scenario.connections);
    scenario.keySpace = cli.getUint("keyspace", scenario.keySpace);
    scenario.openRateRps = cli.getDouble("rate", scenario.openRateRps);
    scenario.zipfianTheta =
        cli.getDouble("theta", scenario.zipfianTheta);
    load::validateScenario(scenario, "command line");

    const uint64_t seed = cli.getUint("seed", defaultSeed());
    const load::Schedule schedule =
        load::buildSchedule(scenario, seed);

    const std::string schedule_out =
        cli.getString("schedule-out", "");
    if (!schedule_out.empty()) {
        const std::vector<uint8_t> bytes =
            load::scheduleBytes(schedule);
        const std::string blob(bytes.begin(), bytes.end());
        if (!obs::writeFile(schedule_out, blob))
            unizk_fatal("cannot write ", schedule_out);
    }
    std::printf("unizk_load: scenario=%s seed=%llu requests=%zu "
                "fingerprint=%016llx\n",
                scenario.name.c_str(),
                static_cast<unsigned long long>(seed),
                schedule.requests.size(),
                static_cast<unsigned long long>(
                    load::scheduleFingerprint(schedule)));
    if (cli.has("dry-run"))
        return 0;

    load::RunOptions opts;
    opts.socketPath = cli.getString("socket", "unizkd.sock");
    if (cli.has("check")) {
        opts.references = load::referenceProofs(schedule);
        std::printf("unizk_load: computed reference proofs for %zu "
                    "keys\n",
                    opts.references.size());
    }

    // The latency percentiles in the report come from the obs
    // histograms, so observability is always on in the generator.
    obs::setEnabled(true);
    const load::RunReport report =
        load::runScenario(scenario, schedule, opts);

    const std::string report_path = cli.getString("report", "");
    if (!report_path.empty()) {
        const std::string doc =
            load::reportToJson(scenario, seed, report);
        if (!obs::writeFile(report_path, doc))
            unizk_fatal("cannot write ", report_path);
        std::printf("unizk_load: wrote report: %s\n",
                    report_path.c_str());
    }

    std::printf("unizk_load: ok=%llu queue_full=%llu "
                "shutting_down=%llu errors=%llu rps=%.2f "
                "p50_ms=%.2f p99_ms=%.2f traced=%zu "
                "breakdown_violations=%llu\n",
                static_cast<unsigned long long>(report.ok),
                static_cast<unsigned long long>(report.queueFull),
                static_cast<unsigned long long>(report.shuttingDown),
                static_cast<unsigned long long>(report.errors),
                report.throughputRps, report.latency.p50Ns / 1e6,
                report.latency.p99Ns / 1e6, report.samples.size(),
                static_cast<unsigned long long>(
                    report.breakdownViolations));
    // A breakdown violation means the daemon's timing decomposition
    // contradicted itself (or our clock): fail loudly.
    return (report.errors || report.breakdownViolations) ? 1 : 0;
}
