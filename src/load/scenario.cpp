#include "load/scenario.h"

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/logging.h"

namespace unizk {
namespace load {

namespace {

bool
isPowerOfTwo(uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/**
 * Strict number parsing for scenario files: the whole token must be
 * consumed, no sign, no overflow. Mirrors CliOptions::getUint — a
 * schedule generated from "1o24" rows must never silently mean 1.
 */
uint64_t
parseUint(const std::string &token, const std::string &origin)
{
    if (token.empty() || token[0] == '-' || token[0] == '+')
        unizk_fatal(origin, ": expected an unsigned integer, got \"",
                    token, "\"");
    errno = 0;
    char *end = nullptr;
    const unsigned long long v =
        std::strtoull(token.c_str(), &end, 0);
    if (errno != 0 || end == token.c_str() || *end != '\0')
        unizk_fatal(origin, ": expected an unsigned integer, got \"",
                    token, "\"");
    return static_cast<uint64_t>(v);
}

double
parseDouble(const std::string &token, const std::string &origin)
{
    if (token.empty() || token[0] == '-' || token[0] == '+')
        unizk_fatal(origin, ": expected a positive number, got \"",
                    token, "\"");
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (errno != 0 || end == token.c_str() || *end != '\0')
        unizk_fatal(origin, ": expected a positive number, got \"",
                    token, "\"");
    return v;
}

MixEntry
makeEntry(service::WireProtocol protocol, AppId app, uint64_t weight,
          uint64_t min_rows, uint64_t max_rows, uint64_t reps)
{
    MixEntry e;
    e.protocol = protocol;
    e.app = app;
    e.weight = weight;
    e.minRows = min_rows;
    e.maxRows = max_rows;
    e.reps = reps;
    return e;
}

/**
 * The shared small-shape Plonky2/Starky mix: weighted draws over four
 * (protocol, app) pairs with a size range each. Shapes stay sub-second
 * so smoke runs are cheap.
 */
std::vector<MixEntry>
smallMixedWorkload()
{
    using service::WireProtocol;
    return {
        makeEntry(WireProtocol::Plonky2, AppId::Factorial, 2, 64, 256,
                  2),
        makeEntry(WireProtocol::Starky, AppId::Fibonacci, 2, 128, 512,
                  0),
        makeEntry(WireProtocol::Plonky2, AppId::Fibonacci, 1, 64, 128,
                  2),
        makeEntry(WireProtocol::Starky, AppId::Sha256, 1, 64, 128, 0),
    };
}

Scenario
makeScenario(const char *name, Arrival arrival, Skew skew,
             std::vector<MixEntry> mix)
{
    Scenario s;
    s.name = name;
    s.arrival = arrival;
    s.skew = skew;
    s.mix = std::move(mix);
    return s;
}

} // namespace

const char *
arrivalName(Arrival arrival)
{
    switch (arrival) {
      case Arrival::ClosedLoop:
        return "closed";
      case Arrival::OpenPoisson:
        return "open-poisson";
      default:
        unizk_panic("unknown arrival process");
    }
}

const char *
skewName(Skew skew)
{
    switch (skew) {
      case Skew::Uniform:
        return "uniform";
      case Skew::Zipfian:
        return "zipfian";
      default:
        unizk_panic("unknown skew model");
    }
}

const std::vector<Scenario> &
builtinScenarios()
{
    using service::WireProtocol;
    static const std::vector<Scenario> scenarios = [] {
        std::vector<Scenario> all;

        // The core matrix: {uniform, zipfian} x {closed, open}.
        all.push_back(makeScenario("uniform-closed",
                                   Arrival::ClosedLoop, Skew::Uniform,
                                   smallMixedWorkload()));
        all.push_back(makeScenario("zipfian-closed",
                                   Arrival::ClosedLoop, Skew::Zipfian,
                                   smallMixedWorkload()));
        all.push_back(makeScenario("poisson-open",
                                   Arrival::OpenPoisson, Skew::Uniform,
                                   smallMixedWorkload()));
        all.push_back(makeScenario("zipfian-open",
                                   Arrival::OpenPoisson, Skew::Zipfian,
                                   smallMixedWorkload()));

        // Rollup batching: many Starky SHA-256 base proofs, fewer
        // recursive Plonky2 aggregations (examples/zk_rollup_batch).
        all.push_back(makeScenario(
            "rollup-batch", Arrival::ClosedLoop, Skew::Zipfian,
            {makeEntry(WireProtocol::Starky, AppId::Sha256, 3, 64, 256,
                       0),
             makeEntry(WireProtocol::Plonky2, AppId::Recursion, 1, 64,
                       128, 1)}));

        // zkML inference traffic: MVM-dominated with a light control
        // circuit (examples/zkml_inference).
        all.push_back(makeScenario(
            "zkml", Arrival::ClosedLoop, Skew::Uniform,
            {makeEntry(WireProtocol::Plonky2, AppId::Mvm, 3, 64, 256,
                       1),
             makeEntry(WireProtocol::Plonky2, AppId::Factorial, 1, 64,
                       128, 1)}));
        return all;
    }();
    return scenarios;
}

const Scenario &
builtinScenario(const std::string &name)
{
    for (const Scenario &s : builtinScenarios()) {
        if (s.name == name)
            return s;
    }
    std::ostringstream known;
    for (const Scenario &s : builtinScenarios())
        known << " " << s.name;
    unizk_fatal("unknown scenario \"", name, "\" (built-ins:",
                known.str(), ")");
}

void
validateScenario(const Scenario &scenario, const std::string &origin)
{
    if (scenario.name.empty())
        unizk_fatal(origin, ": scenario has no name");
    if (scenario.requests < 1)
        unizk_fatal(origin, ": requests must be >= 1");
    if (scenario.connections < 1)
        unizk_fatal(origin, ": connections must be >= 1");
    if (scenario.keySpace < 1 || scenario.keySpace > kMaxKeySpace)
        unizk_fatal(origin, ": keyspace must be in [1, ", kMaxKeySpace,
                    "], got ", scenario.keySpace);
    if (scenario.skew == Skew::Zipfian &&
        (scenario.zipfianTheta <= 0.0 || scenario.zipfianTheta > 4.0))
        unizk_fatal(origin, ": theta must be in (0, 4], got ",
                    scenario.zipfianTheta);
    if (scenario.arrival == Arrival::OpenPoisson &&
        scenario.openRateRps <= 0.0)
        unizk_fatal(origin, ": rate must be > 0, got ",
                    scenario.openRateRps);
    if (scenario.mix.empty())
        unizk_fatal(origin, ": scenario has an empty mix");
    for (const MixEntry &e : scenario.mix) {
        const std::string where =
            origin + ": mix entry " + appToken(e.app);
        if (e.weight < 1)
            unizk_fatal(where, ": weight must be >= 1");
        if (!isPowerOfTwo(e.minRows) || !isPowerOfTwo(e.maxRows))
            unizk_fatal(where, ": minRows/maxRows must be powers of "
                        "two, got ", e.minRows, "/", e.maxRows);
        if (e.minRows > e.maxRows)
            unizk_fatal(where, ": minRows ", e.minRows,
                        " exceeds maxRows ", e.maxRows);
        if (e.maxRows > service::kMaxRequestRows)
            unizk_fatal(where, ": maxRows ", e.maxRows,
                        " exceeds the service bound ",
                        service::kMaxRequestRows);
        if (e.reps > service::kMaxRequestReps)
            unizk_fatal(where, ": reps ", e.reps,
                        " exceeds the service bound ",
                        service::kMaxRequestReps);
        if (e.protocol == service::WireProtocol::Starky &&
            !hasStarkImplementation(e.app))
            unizk_fatal(where,
                        ": app has no Starky implementation (only "
                        "factorial, fibonacci, sha256 do)");
    }
}

Scenario
parseScenarioFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        unizk_fatal("cannot read scenario file ", path);

    Scenario scenario;
    scenario.mix.clear();
    std::string line;
    size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        std::istringstream tokens(line);
        std::string directive;
        if (!(tokens >> directive))
            continue; // blank / comment-only line
        const std::string origin =
            path + ":" + std::to_string(lineno);
        std::vector<std::string> args;
        for (std::string t; tokens >> t;)
            args.push_back(t);

        auto oneArg = [&]() -> const std::string & {
            if (args.size() != 1)
                unizk_fatal(origin, ": '", directive,
                            "' takes exactly one argument");
            return args[0];
        };

        if (directive == "name") {
            scenario.name = oneArg();
        } else if (directive == "arrival") {
            const std::string &v = oneArg();
            if (v == "closed")
                scenario.arrival = Arrival::ClosedLoop;
            else if (v == "open-poisson")
                scenario.arrival = Arrival::OpenPoisson;
            else
                unizk_fatal(origin, ": arrival must be closed or "
                            "open-poisson, got \"", v, "\"");
        } else if (directive == "skew") {
            const std::string &v = oneArg();
            if (v == "uniform")
                scenario.skew = Skew::Uniform;
            else if (v == "zipfian")
                scenario.skew = Skew::Zipfian;
            else
                unizk_fatal(origin, ": skew must be uniform or "
                            "zipfian, got \"", v, "\"");
        } else if (directive == "theta") {
            scenario.zipfianTheta = parseDouble(oneArg(), origin);
        } else if (directive == "rate") {
            scenario.openRateRps = parseDouble(oneArg(), origin);
        } else if (directive == "connections") {
            scenario.connections = parseUint(oneArg(), origin);
        } else if (directive == "requests") {
            scenario.requests = parseUint(oneArg(), origin);
        } else if (directive == "keyspace") {
            scenario.keySpace = parseUint(oneArg(), origin);
        } else if (directive == "mix") {
            if (args.size() != 6)
                unizk_fatal(origin,
                            ": mix takes <protocol> <app> <weight> "
                            "<minRows> <maxRows> <reps>");
            MixEntry e;
            if (args[0] == "plonky2")
                e.protocol = service::WireProtocol::Plonky2;
            else if (args[0] == "starky")
                e.protocol = service::WireProtocol::Starky;
            else
                unizk_fatal(origin, ": protocol must be plonky2 or "
                            "starky, got \"", args[0], "\"");
            e.app = appFromToken(args[1], origin);
            e.weight = parseUint(args[2], origin);
            e.minRows = parseUint(args[3], origin);
            e.maxRows = parseUint(args[4], origin);
            e.reps = parseUint(args[5], origin);
            scenario.mix.push_back(e);
        } else {
            unizk_fatal(origin, ": unknown directive \"", directive,
                        "\"");
        }
    }
    if (scenario.name.empty())
        unizk_fatal(path, ": scenario file sets no name");
    validateScenario(scenario, path);
    return scenario;
}

} // namespace load
} // namespace unizk
