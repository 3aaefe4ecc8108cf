/**
 * @file
 * Load-test scenarios: named, reproducible proof-request mixes over the
 * application zoo (YCSB-style workload definitions, DESIGN.md section
 * 6.9).
 *
 * A scenario names everything a traffic run needs to be reproducible:
 *
 *   - a weighted workload *mix* over (protocol, app) pairs with a
 *     per-entry request-size range (rows drawn as powers of two),
 *   - a *key space* of distinct circuit keys; every key maps to one
 *     fixed request shape, so key popularity is circuit popularity,
 *   - a *skew* model for key draws: uniform, or zipfian (hot keys
 *     dominate, as in YCSB's zipfian-distributed record selection),
 *   - an *arrival* process: closed-loop (each connection issues its
 *     next request when the previous response lands) or open-loop
 *     Poisson (requests arrive on a schedule regardless of service
 *     rate, which is what exposes queueing behaviour).
 *
 * Scenarios come from the built-in matrix (builtinScenarios()) or from
 * a scenario file. File parsing is strict: any unknown directive,
 * malformed number, or out-of-range field is a unizk_fatal, never a
 * silent default — a load report from a misparsed scenario would be a
 * measurement of the wrong experiment.
 */

#ifndef UNIZK_LOAD_SCENARIO_H
#define UNIZK_LOAD_SCENARIO_H

#include <cstdint>
#include <string>
#include <vector>

#include "service/protocol.h"
#include "workloads/apps.h"

namespace unizk {
namespace load {

/** How requests are injected. */
enum class Arrival
{
    ClosedLoop,  ///< next request after the previous response
    OpenPoisson, ///< exponential interarrival gaps at a fixed rate
};

/** How circuit keys are drawn from the key space. */
enum class Skew
{
    Uniform,
    Zipfian,
};

const char *arrivalName(Arrival arrival);
const char *skewName(Skew skew);

/** One weighted entry of a scenario's workload mix. */
struct MixEntry
{
    service::WireProtocol protocol = service::WireProtocol::Plonky2;
    AppId app = AppId::Factorial;

    /** Relative draw weight within the mix (>= 1). */
    uint64_t weight = 1;

    /**
     * Request-size range: rows are drawn as a power of two in
     * [minRows, maxRows] (both must be powers of two). Power-of-two
     * steps match what the prover pads to anyway, so every drawn size
     * is a distinct real shape.
     */
    uint64_t minRows = 64;
    uint64_t maxRows = 256;

    /** Witness repetitions (Plonky2 only; 0 = app default). */
    uint64_t reps = 1;
};

/**
 * Ceiling on the key space so the zipfian rejection sampler stays
 * cheap (expected iterations grow ~ n^(1-theta)).
 */
constexpr uint64_t kMaxKeySpace = uint64_t{1} << 16;

struct Scenario
{
    std::string name;
    Arrival arrival = Arrival::ClosedLoop;
    Skew skew = Skew::Uniform;

    /** Zipfian exponent (used when skew == Zipfian); in (0, 4]. */
    double zipfianTheta = 0.99;

    /** Open-loop arrival rate in requests/second (> 0). */
    double openRateRps = 8.0;

    /** Concurrent client connections (closed-loop: independent
     *  streams; open-loop: dispatch workers). */
    uint64_t connections = 4;

    /** Total requests in one generated schedule. */
    uint64_t requests = 16;

    /** Distinct circuit keys; each key is one fixed request shape. */
    uint64_t keySpace = 64;

    std::vector<MixEntry> mix;
};

/**
 * The built-in scenario matrix: uniform-closed, zipfian-closed,
 * poisson-open, zipfian-open, rollup-batch (SHA-256 base proofs +
 * recursive aggregation, mirroring examples/zk_rollup_batch.cpp) and
 * zkml (MVM-heavy, mirroring examples/zkml_inference.cpp).
 */
const std::vector<Scenario> &builtinScenarios();

/** Look up a built-in scenario; unizk_fatal on an unknown name. */
const Scenario &builtinScenario(const std::string &name);

/**
 * Parse a scenario file. Line-based, '#' comments:
 *
 *   name my-scenario
 *   arrival closed | open-poisson
 *   skew uniform | zipfian
 *   theta 0.99
 *   rate 8.0
 *   connections 4
 *   requests 32
 *   keyspace 64
 *   mix <plonky2|starky> <app> <weight> <minRows> <maxRows> <reps>
 *
 * App tokens are appToken's (src/workloads/apps.h): factorial
 * fibonacci ecdsa sha256 image-crop mvm recursion. Every error
 * (unreadable file, unknown directive, junk number, range violation,
 * empty mix, Starky entry for an app without an AET) is a unizk_fatal
 * naming the file and line.
 */
Scenario parseScenarioFile(const std::string &path);

/**
 * Validate ranges that both the parser and programmatic construction
 * must respect; unizk_fatal (with @p origin in the message) on any
 * violation. Called by parseScenarioFile and by unizk_load after CLI
 * overrides are applied.
 */
void validateScenario(const Scenario &scenario,
                      const std::string &origin);

} // namespace load
} // namespace unizk

#endif // UNIZK_LOAD_SCENARIO_H
