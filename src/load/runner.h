/**
 * @file
 * Scenario runner: drives a generated schedule against a live unizkd
 * through the src/service client path and aggregates the results into
 * a `unizk-load-v1` report (throughput, latency percentiles from the
 * obs histograms, queue-depth-over-time samples, per-app counts).
 *
 * Closed-loop scenarios run one thread per connection; each thread
 * walks its round-robin slice of the schedule, issuing the next
 * request when the previous response lands. Open-loop scenarios run
 * `connections` dispatch workers pulling from a shared cursor; each
 * worker sleeps until its request's scheduled arrival offset, so the
 * offered load follows the Poisson schedule regardless of how fast
 * the daemon answers (up to the concurrency the worker count allows).
 *
 * Outcome accounting: queue-full and shutting-down rejections are
 * backpressure, not failures; transport losses, protocol errors and
 * (with reference proofs) proof-byte mismatches count as errors. Every
 * schedule entry is accounted exactly once: ok + queueFull +
 * shuttingDown + errors == issued (entries stranded by a dead
 * connection are charged as errors), which the tools/load schema
 * validator re-checks.
 */

#ifndef UNIZK_LOAD_RUNNER_H
#define UNIZK_LOAD_RUNNER_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "load/generator.h"
#include "load/scenario.h"

namespace unizk {
namespace load {

/** Expected proof bytes per circuit key (LoadRequest::key). */
using ReferenceProofs = std::map<uint64_t, std::vector<uint8_t>>;

struct RunOptions
{
    std::string socketPath;

    /**
     * Empty (the default) checks nothing. Otherwise it must hold every
     * key of the schedule, and each ok response whose proof differs
     * from its key's bytes is warned about and counted as an error.
     */
    ReferenceProofs references;
};

/**
 * The in-process proof of every circuit key in @p schedule
 * (service::runRequest, the prover lanes' own path). Every key maps to
 * one fixed request shape, and many keys to the same resolved shape
 * (service::shapeKeyOf), so each distinct shape is proved once and its
 * bytes are copied to every key drawing it.
 */
ReferenceProofs referenceProofs(const Schedule &schedule);

/** Latency summary derived from the load.request_latency_ns obs
 *  histogram (quantiles via obs::histogramQuantile, so within the
 *  log2-bucket 2x fidelity; min/max/mean are exact). */
struct LatencySummary
{
    uint64_t count = 0;
    uint64_t minNs = 0;
    uint64_t maxNs = 0;
    double meanNs = 0.0;
    double p50Ns = 0.0;
    double p90Ns = 0.0;
    double p99Ns = 0.0;
};

/** Daemon queue depth observed at one response, offset from run start. */
struct QueueSample
{
    uint64_t tNs = 0;
    uint64_t depth = 0;
};

struct PerAppCount
{
    service::WireProtocol protocol = service::WireProtocol::Plonky2;
    AppId app = AppId::Factorial;
    uint64_t count = 0;
};

/**
 * Client-observed vs server-observed timing of one ok response.
 * Schedules trace every request (generator assigns traceId =
 * schedule position + 1), so the server decomposition comes back on
 * each response and
 *   queuedNs + proveNs + serializeNs <= serverNs <= clientNs
 * must hold per sample; clientNs - serverNs is the network + framing
 * residual. Violations are counted in RunReport::breakdownViolations
 * and re-checked by tools/load/validate_load_json.py.
 */
struct RequestSample
{
    uint64_t traceId = 0;
    uint64_t laneId = 0;
    uint64_t clientNs = 0; ///< send -> response decoded, our clock
    uint64_t serverNs = 0; ///< admission -> serialized, daemon clock
    uint64_t queuedNs = 0;
    uint64_t proveNs = 0;
    uint64_t serializeNs = 0;
};

struct RunReport
{
    uint64_t issued = 0;
    uint64_t ok = 0;
    uint64_t queueFull = 0;
    uint64_t shuttingDown = 0;
    uint64_t errors = 0;

    double elapsedSeconds = 0.0;
    double throughputRps = 0.0; ///< ok / elapsedSeconds

    LatencySummary latency;
    std::vector<QueueSample> queueDepth; ///< one per ok, by tNs
    std::vector<PerAppCount> perApp;     ///< ok counts, mix order

    /** One entry per traced ok response, sorted by traceId. */
    std::vector<RequestSample> samples;
    uint64_t breakdownViolations = 0;
};

/**
 * Run @p schedule against the daemon at opts.socketPath. Resets the
 * obs capture window (obs::resetForMeasurement) at the start so the
 * latency histogram covers exactly this run; obs must be enabled by
 * the caller for percentiles to be populated.
 */
RunReport runScenario(const Scenario &scenario,
                      const Schedule &schedule, const RunOptions &opts);

/** Render the `unizk-load-v1` JSON document. */
std::string reportToJson(const Scenario &scenario, uint64_t seed,
                         const RunReport &report);

} // namespace load
} // namespace unizk

#endif // UNIZK_LOAD_RUNNER_H
