/**
 * @file
 * Tests for the load subsystem: byte-determinism of generated
 * schedules (same seed -> identical bytes, closed- and open-loop),
 * distribution shape of the samplers (uniform/zipfian key ratios and
 * Poisson interarrival mean within tolerance over large draws),
 * per-key request-shape stability, strict scenario-file parsing
 * (every misparse is fatal, never a silent default), and in-process
 * end-to-end runs against a live ProofService, including the
 * reference-proof byte check.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "load/generator.h"
#include "load/runner.h"
#include "load/scenario.h"
#include "obs/obs.h"
#include "service/server.h"

namespace unizk {
namespace load {
namespace {

/** Per-process socket path so parallel ctest runs cannot collide. */
std::string
testSocketPath(const char *tag)
{
    return "/tmp/unizk_load_test_" + std::to_string(::getpid()) + "_" +
           tag + ".sock";
}

/** Write @p text to a per-process temp file and return its path. */
std::string
writeTempScenario(const char *tag, const std::string &text)
{
    const std::string path = "/tmp/unizk_load_test_" +
                             std::to_string(::getpid()) + "_" + tag +
                             ".scn";
    std::ofstream out(path);
    out << text;
    out.close();
    return path;
}

Scenario
tinyScenario()
{
    Scenario s;
    s.name = "test-tiny";
    s.arrival = Arrival::ClosedLoop;
    s.skew = Skew::Uniform;
    s.connections = 2;
    s.requests = 4;
    s.keySpace = 8;
    MixEntry e;
    e.protocol = service::WireProtocol::Plonky2;
    e.app = AppId::Factorial;
    e.weight = 1;
    e.minRows = 64;
    e.maxRows = 64;
    e.reps = 1;
    s.mix = {e};
    return s;
}

// ---------------------------------------------------------------------
// Schedule determinism: the whole point of the SplitMix64-only design.

TEST(Schedule, SameSeedIsByteIdenticalClosedLoop)
{
    const Scenario &s = builtinScenario("zipfian-closed");
    const Schedule a = buildSchedule(s, 42);
    const Schedule b = buildSchedule(s, 42);
    EXPECT_EQ(scheduleBytes(a), scheduleBytes(b));
    EXPECT_EQ(scheduleFingerprint(a), scheduleFingerprint(b));
}

TEST(Schedule, SameSeedIsByteIdenticalOpenLoop)
{
    const Scenario &s = builtinScenario("poisson-open");
    const Schedule a = buildSchedule(s, 42);
    const Schedule b = buildSchedule(s, 42);
    EXPECT_EQ(scheduleBytes(a), scheduleBytes(b));
}

TEST(Schedule, DifferentSeedsDiffer)
{
    const Scenario &s = builtinScenario("uniform-closed");
    const Schedule a = buildSchedule(s, 1);
    const Schedule b = buildSchedule(s, 2);
    EXPECT_NE(scheduleBytes(a), scheduleBytes(b));
}

TEST(Schedule, ClosedLoopShapeAndConnectionAssignment)
{
    Scenario s = tinyScenario();
    s.requests = 10;
    s.connections = 3;
    const Schedule sched = buildSchedule(s, 9);
    ASSERT_EQ(sched.requests.size(), 10u);
    for (size_t i = 0; i < sched.requests.size(); ++i) {
        const LoadRequest &r = sched.requests[i];
        EXPECT_EQ(r.arrivalNs, 0u) << i; // closed-loop: no schedule
        EXPECT_EQ(r.connection, i % 3) << i;
        EXPECT_LT(r.key, s.keySpace) << i;
        EXPECT_EQ(r.request.rows, 64u) << i;
    }
}

TEST(Schedule, OpenLoopArrivalsAreMonotone)
{
    Scenario s = tinyScenario();
    s.arrival = Arrival::OpenPoisson;
    s.openRateRps = 100.0;
    s.requests = 64;
    const Schedule sched = buildSchedule(s, 5);
    ASSERT_EQ(sched.requests.size(), 64u);
    uint64_t prev = 0;
    for (const LoadRequest &r : sched.requests) {
        EXPECT_GE(r.arrivalNs, prev);
        prev = r.arrivalNs;
    }
    EXPECT_GT(prev, 0u);
}

TEST(Schedule, KeyMapsToStableRequestShape)
{
    // A key's request shape depends on (seed, key) only: re-drawing the
    // same key -- in any order, any number of times -- yields the
    // identical request, so zipfian-hot keys are hot circuit shapes.
    const Scenario &s = builtinScenario("zipfian-closed");
    for (uint64_t key = 0; key < 16; ++key) {
        const service::ProveRequest a = requestForKey(s, 7, key);
        const service::ProveRequest b = requestForKey(s, 7, key);
        EXPECT_EQ(a.protocol, b.protocol) << key;
        EXPECT_EQ(a.app, b.app) << key;
        EXPECT_EQ(a.rows, b.rows) << key;
        EXPECT_EQ(a.reps, b.reps) << key;
    }
    // And the shapes inside a schedule agree with requestForKey.
    const Schedule sched = buildSchedule(s, 7);
    for (const LoadRequest &r : sched.requests) {
        const service::ProveRequest want = requestForKey(s, 7, r.key);
        EXPECT_EQ(r.request.app, want.app);
        EXPECT_EQ(r.request.rows, want.rows);
    }
}

// ---------------------------------------------------------------------
// Sampler distribution shape.

TEST(Samplers, UniformDrawIsFlatWithinTolerance)
{
    constexpr uint64_t kKeys = 64;
    constexpr uint64_t kDraws = 64 * 1024;
    SplitMix64 rng(123);
    std::vector<uint64_t> counts(kKeys, 0);
    for (uint64_t i = 0; i < kDraws; ++i) {
        const uint64_t k = uniformDraw(rng, kKeys);
        ASSERT_LT(k, kKeys);
        ++counts[k];
    }
    // Expected 1024 per key; a 25% band is ~8 sigma for a binomial
    // with p = 1/64, so a deterministic seed never trips this.
    const double expect =
        static_cast<double>(kDraws) / static_cast<double>(kKeys);
    for (uint64_t k = 0; k < kKeys; ++k) {
        EXPECT_GT(static_cast<double>(counts[k]), 0.75 * expect) << k;
        EXPECT_LT(static_cast<double>(counts[k]), 1.25 * expect) << k;
    }
}

TEST(Samplers, ZipfianRatiosMatchTheExponent)
{
    constexpr uint64_t kKeys = 64;
    constexpr uint64_t kDraws = 256 * 1024;
    const double theta = 0.99;
    SplitMix64 rng(456);
    std::vector<uint64_t> counts(kKeys, 0);
    for (uint64_t i = 0; i < kDraws; ++i) {
        const uint64_t k = zipfianDraw(rng, kKeys, theta);
        ASSERT_LT(k, kKeys);
        ++counts[k];
    }
    // P(k) proportional to (k+1)^-theta, so count(0)/count(k) should be
    // ~ (k+1)^theta. Check a few spaced keys within 20%.
    for (uint64_t k : {1u, 3u, 7u, 15u, 31u}) {
        ASSERT_GT(counts[k], 0u) << k;
        const double got = static_cast<double>(counts[0]) /
                           static_cast<double>(counts[k]);
        const double want =
            std::pow(static_cast<double>(k + 1), theta);
        EXPECT_GT(got, 0.8 * want) << "k=" << k;
        EXPECT_LT(got, 1.2 * want) << "k=" << k;
    }
    // Skew sanity: the hottest key dominates the uniform share.
    EXPECT_GT(counts[0] * kKeys, 4 * kDraws);
}

TEST(Samplers, PoissonInterarrivalMeanWithinTolerance)
{
    const double rate = 50.0; // requests/second
    constexpr uint64_t kDraws = 128 * 1024;
    SplitMix64 rng(789);
    double sum = 0.0;
    for (uint64_t i = 0; i < kDraws; ++i) {
        const double gap = poissonGapSeconds(rng, rate);
        ASSERT_GE(gap, 0.0);
        sum += gap;
    }
    const double mean = sum / static_cast<double>(kDraws);
    // Exponential(rate) has mean 1/rate and sd 1/rate: over 128k draws
    // the sample mean sits well within 2% of 1/50 s.
    EXPECT_GT(mean, 0.98 / rate);
    EXPECT_LT(mean, 1.02 / rate);
}

// ---------------------------------------------------------------------
// Built-in matrix and validation.

TEST(Scenarios, BuiltinMatrixIsValidAndNamed)
{
    const std::vector<Scenario> &all = builtinScenarios();
    ASSERT_GE(all.size(), 6u);
    for (const Scenario &s : all) {
        EXPECT_FALSE(s.name.empty());
        EXPECT_FALSE(s.mix.empty()) << s.name;
        // Must not fatal.
        validateScenario(s, "builtin matrix test");
        // And each must produce a schedule of the advertised length.
        const Schedule sched = buildSchedule(s, 1);
        EXPECT_EQ(sched.requests.size(), s.requests) << s.name;
    }
    EXPECT_EQ(builtinScenario("uniform-closed").skew, Skew::Uniform);
    EXPECT_EQ(builtinScenario("poisson-open").arrival,
              Arrival::OpenPoisson);
}

TEST(ScenariosDeathTest, UnknownBuiltinNameIsFatal)
{
    EXPECT_DEATH(builtinScenario("no-such-scenario"), "fatal");
}

TEST(ScenariosDeathTest, ValidateRejectsBadRanges)
{
    {
        Scenario s = tinyScenario();
        s.requests = 0;
        EXPECT_DEATH(validateScenario(s, "test"), "fatal");
    }
    {
        Scenario s = tinyScenario();
        s.keySpace = kMaxKeySpace + 1;
        EXPECT_DEATH(validateScenario(s, "test"), "fatal");
    }
    {
        Scenario s = tinyScenario();
        s.mix[0].minRows = 96; // not a power of two
        EXPECT_DEATH(validateScenario(s, "test"), "fatal");
    }
    {
        Scenario s = tinyScenario();
        s.skew = Skew::Zipfian;
        s.zipfianTheta = 0.0;
        EXPECT_DEATH(validateScenario(s, "test"), "fatal");
    }
    {
        // Starky entry for an app without an AET implementation.
        Scenario s = tinyScenario();
        s.mix[0].protocol = service::WireProtocol::Starky;
        s.mix[0].app = AppId::Ecdsa;
        EXPECT_DEATH(validateScenario(s, "test"), "fatal");
    }
}

// ---------------------------------------------------------------------
// Scenario-file parsing: strict, fatal on any misparse.

TEST(ScenarioFile, ParsesAWellFormedFile)
{
    const std::string path = writeTempScenario("ok",
        "# comment\n"
        "name my-mix\n"
        "arrival open-poisson\n"
        "skew zipfian\n"
        "theta 1.1\n"
        "rate 25\n"
        "connections 3\n"
        "requests 12\n"
        "keyspace 32\n"
        "mix plonky2 factorial 2 64 256 2\n"
        "mix starky sha256 1 128 128 0\n");
    const Scenario s = parseScenarioFile(path);
    std::remove(path.c_str());
    EXPECT_EQ(s.name, "my-mix");
    EXPECT_EQ(s.arrival, Arrival::OpenPoisson);
    EXPECT_EQ(s.skew, Skew::Zipfian);
    EXPECT_DOUBLE_EQ(s.zipfianTheta, 1.1);
    EXPECT_DOUBLE_EQ(s.openRateRps, 25.0);
    EXPECT_EQ(s.connections, 3u);
    EXPECT_EQ(s.requests, 12u);
    EXPECT_EQ(s.keySpace, 32u);
    ASSERT_EQ(s.mix.size(), 2u);
    EXPECT_EQ(s.mix[0].app, AppId::Factorial);
    EXPECT_EQ(s.mix[1].protocol, service::WireProtocol::Starky);
    EXPECT_EQ(s.mix[1].app, AppId::Sha256);
}

TEST(ScenarioFileDeathTest, MisparsesAreFatalNeverDefaulted)
{
    const struct
    {
        const char *tag;
        const char *text;
    } cases[] = {
        {"unknown_directive", "name x\nbogus 1\nmix plonky2 factorial "
                              "1 64 64 1\n"},
        {"junk_number", "name x\nrequests 12abc\nmix plonky2 "
                        "factorial 1 64 64 1\n"},
        {"negative_number", "name x\nrequests -4\nmix plonky2 "
                            "factorial 1 64 64 1\n"},
        {"bad_arrival", "name x\narrival sometimes\nmix plonky2 "
                        "factorial 1 64 64 1\n"},
        {"bad_app", "name x\nmix plonky2 quicksort 1 64 64 1\n"},
        {"short_mix", "name x\nmix plonky2 factorial 1 64\n"},
        {"empty_mix", "name x\nrequests 4\n"},
    };
    for (const auto &c : cases) {
        const std::string path = writeTempScenario(c.tag, c.text);
        EXPECT_DEATH(parseScenarioFile(path), "fatal") << c.tag;
        std::remove(path.c_str());
    }
}

TEST(ScenarioFileDeathTest, MissingFileIsFatal)
{
    EXPECT_DEATH(parseScenarioFile("/nonexistent/zzz.scn"), "fatal");
}

// ---------------------------------------------------------------------
// End-to-end: drive a live in-process ProofService.

TEST(LoadRunner, ClosedLoopAgainstLiveService)
{
    obs::setEnabled(true);
    const std::string socket = testSocketPath("closed");
    service::ServiceConfig cfg;
    cfg.socketPath = socket;
    cfg.queueCapacity = 8;
    cfg.proverLanes = 2;
    service::ProofService svc(cfg);
    ASSERT_TRUE(svc.start());

    Scenario s = tinyScenario();
    const Schedule sched = buildSchedule(s, 3);
    RunOptions opts;
    opts.socketPath = socket;
    const RunReport report = runScenario(s, sched, opts);
    svc.stop();

    EXPECT_EQ(report.issued, s.requests);
    EXPECT_EQ(report.ok, s.requests);
    EXPECT_EQ(report.errors, 0u);
    // Accounting invariant: every schedule entry exactly once.
    EXPECT_EQ(report.ok + report.queueFull + report.shuttingDown +
                  report.errors,
              report.issued);
    EXPECT_EQ(report.latency.count, report.ok);
    EXPECT_GT(report.latency.p50Ns, 0.0);
    EXPECT_LE(report.latency.p50Ns, report.latency.p99Ns);
    EXPECT_EQ(report.queueDepth.size(), report.ok);
    uint64_t per_app_sum = 0;
    for (const PerAppCount &p : report.perApp)
        per_app_sum += p.count;
    EXPECT_EQ(per_app_sum, report.ok);
    EXPECT_GT(report.throughputRps, 0.0);

    // The generator traces every schedule entry (traceId = position
    // + 1), so every ok response must carry the server decomposition
    // and nest inside the client observation.
    ASSERT_EQ(report.samples.size(), report.ok);
    EXPECT_EQ(report.breakdownViolations, 0u);
    uint64_t last_trace = 0;
    for (const RequestSample &sample : report.samples) {
        EXPECT_GT(sample.traceId, last_trace); // sorted, unique
        last_trace = sample.traceId;
        EXPECT_LE(sample.traceId, s.requests);
        EXPECT_LT(sample.laneId, cfg.proverLanes);
        EXPECT_GT(sample.proveNs, 0u);
        EXPECT_LE(sample.queuedNs + sample.proveNs +
                      sample.serializeNs,
                  sample.serverNs);
        EXPECT_LE(sample.serverNs, sample.clientNs);
    }

    const std::string json = reportToJson(s, 3, report);
    EXPECT_NE(json.find("\"schema\": \"unizk-load-v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"name\": \"test-tiny\""), std::string::npos);
    EXPECT_NE(json.find("\"breakdown\""), std::string::npos);
    EXPECT_NE(json.find("\"violations\": 0"), std::string::npos);
}

TEST(LoadRunner, CheckCountsOnlyTheAlteredKeyAsErrors)
{
    obs::setEnabled(true);
    const std::string socket = testSocketPath("check");
    service::ServiceConfig cfg;
    cfg.socketPath = socket;
    cfg.queueCapacity = 8;
    cfg.proverLanes = 2;
    service::ProofService svc(cfg);
    ASSERT_TRUE(svc.start());

    Scenario s = tinyScenario();
    s.requests = 6;
    s.keySpace = 2; // keys repeat, so one key covers several requests
    const Schedule sched = buildSchedule(s, 3);
    RunOptions opts;
    opts.socketPath = socket;
    opts.references = referenceProofs(sched);
    const RunReport correct = runScenario(s, sched, opts);

    const uint64_t altered = sched.requests.front().key;
    uint64_t altered_requests = 0;
    for (const LoadRequest &item : sched.requests)
        altered_requests += item.key == altered ? 1 : 0;
    ASSERT_LT(altered_requests, s.requests);
    opts.references[altered].back() ^= 1;
    const RunReport wrong = runScenario(s, sched, opts);
    svc.stop();

    EXPECT_EQ(correct.ok, s.requests);
    EXPECT_EQ(correct.errors, 0u);
    EXPECT_EQ(wrong.errors, altered_requests);
    EXPECT_EQ(wrong.ok, s.requests - altered_requests);
    EXPECT_EQ(wrong.ok + wrong.queueFull + wrong.shuttingDown +
                  wrong.errors,
              wrong.issued);
}

TEST(LoadRunner, OpenLoopAgainstLiveService)
{
    obs::setEnabled(true);
    const std::string socket = testSocketPath("open");
    service::ServiceConfig cfg;
    cfg.socketPath = socket;
    cfg.queueCapacity = 8;
    cfg.proverLanes = 2;
    service::ProofService svc(cfg);
    ASSERT_TRUE(svc.start());

    Scenario s = tinyScenario();
    s.arrival = Arrival::OpenPoisson;
    s.openRateRps = 200.0; // keep the scheduled span tiny
    const Schedule sched = buildSchedule(s, 3);
    RunOptions opts;
    opts.socketPath = socket;
    const RunReport report = runScenario(s, sched, opts);
    svc.stop();

    EXPECT_EQ(report.issued, s.requests);
    EXPECT_EQ(report.ok + report.queueFull + report.shuttingDown +
                  report.errors,
              report.issued);
    // 4 requests against queue capacity 8: nothing should be lost.
    EXPECT_EQ(report.ok, s.requests);
    EXPECT_EQ(report.errors, 0u);
    // Open-loop runs trace end to end too.
    EXPECT_EQ(report.samples.size(), report.ok);
    EXPECT_EQ(report.breakdownViolations, 0u);
}

TEST(LoadRunner, DeadSocketChargesErrorsNotSilence)
{
    Scenario s = tinyScenario();
    const Schedule sched = buildSchedule(s, 3);
    RunOptions opts;
    opts.socketPath = testSocketPath("nobody-listening");
    const RunReport report = runScenario(s, sched, opts);
    EXPECT_EQ(report.issued, s.requests);
    EXPECT_EQ(report.ok, 0u);
    EXPECT_EQ(report.errors, s.requests);
}

} // namespace
} // namespace load
} // namespace unizk
