#include "load/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "common/logging.h"
#include "common/stats.h"
#include "common/sync.h"
#include "obs/json_writer.h"
#include "obs/obs.h"
#include "service/client.h"
#include "service/key_cache.h"

namespace unizk {
namespace load {

namespace {

using service::ErrorCode;
using service::ResponseFrame;
using service::ServiceClient;
using service::Tag;

/** Shared mutable run state, one instance per runScenario call. */
struct RunState
{
    Mutex mutex;
    uint64_t ok UNIZK_GUARDED_BY(mutex) = 0;
    uint64_t queueFull UNIZK_GUARDED_BY(mutex) = 0;
    uint64_t shuttingDown UNIZK_GUARDED_BY(mutex) = 0;
    uint64_t errors UNIZK_GUARDED_BY(mutex) = 0;
    std::vector<QueueSample> queueDepth UNIZK_GUARDED_BY(mutex);
    /** ok counts, indexed like scenario.mix. */
    std::vector<uint64_t> perApp UNIZK_GUARDED_BY(mutex);
    std::vector<RequestSample> samples UNIZK_GUARDED_BY(mutex);
    uint64_t breakdownViolations UNIZK_GUARDED_BY(mutex) = 0;
};

size_t
mixIndexOf(const Scenario &scenario,
           const service::ProveRequest &req)
{
    for (size_t i = 0; i < scenario.mix.size(); ++i) {
        if (scenario.mix[i].protocol == req.protocol &&
            scenario.mix[i].app == req.app)
            return i;
    }
    unizk_panic("schedule request outside the scenario mix");
}

/**
 * Issue one scheduled request on @p client and fold the outcome into
 * @p state. Returns false when the transport died (the caller's
 * connection is unusable afterwards).
 */
bool
issueOne(ServiceClient &client, const Scenario &scenario,
         const RunOptions &opts, const LoadRequest &item,
         const Stopwatch &run_clock, RunState &state)
{
    const Stopwatch request_clock;
    const auto resp = client.prove(item.request);
    const uint64_t latency_ns = static_cast<uint64_t>(
        request_clock.elapsedSeconds() * 1e9);
    const uint64_t t_ns =
        static_cast<uint64_t>(run_clock.elapsedSeconds() * 1e9);

    if (!resp) {
        MutexLock lock(state.mutex);
        state.errors += 1;
        return false;
    }
    if (resp->tag == Tag::Error) {
        MutexLock lock(state.mutex);
        switch (resp->error.code) {
          case ErrorCode::QueueFull:
            state.queueFull += 1;
            break;
          case ErrorCode::ShuttingDown:
            state.shuttingDown += 1;
            break;
          default:
            warn("unizk_load: server error: ",
                 errorCodeName(resp->error.code), ": ",
                 resp->error.message);
            state.errors += 1;
            break;
        }
        return true;
    }
    if (resp->tag != Tag::ProveOk ||
        (item.request.verify && !resp->prove.verified)) {
        MutexLock lock(state.mutex);
        state.errors += 1;
        return true;
    }
    if (!opts.references.empty() &&
        resp->prove.proof != opts.references.at(item.key)) {
        warn("unizk_load: proof of trace ", item.request.traceId,
             " (key ", item.key, ") differs from the in-process "
             "reference");
        MutexLock lock(state.mutex);
        state.errors += 1;
        return true;
    }

    UNIZK_OBS_HISTO("load.request_latency_ns", latency_ns);
    MutexLock lock(state.mutex);
    state.ok += 1;
    state.queueDepth.push_back({t_ns, resp->prove.queueDepth});
    state.perApp[mixIndexOf(scenario, item.request)] += 1;
    const service::ProveResponse &p = resp->prove;
    if (p.hasServerTiming) {
        RequestSample sample;
        sample.traceId = p.traceId;
        sample.laneId = p.laneId;
        sample.clientNs = latency_ns;
        sample.serverNs = p.latencyNs;
        sample.queuedNs = p.queuedNs;
        sample.proveNs = p.proveNs;
        sample.serializeNs = p.serializeNs;
        state.samples.push_back(sample);
        if (p.traceId != item.request.traceId ||
            p.queuedNs + p.proveNs + p.serializeNs > p.latencyNs ||
            p.latencyNs > latency_ns) {
            state.breakdownViolations += 1;
        }
    }
    return true;
}

void
chargeSkipped(RunState &state, uint64_t skipped)
{
    if (skipped > 0) {
        MutexLock lock(state.mutex);
        state.errors += skipped;
    }
}

/** Closed-loop worker: the round-robin slice of one connection. */
void
runClosedConnection(const Scenario &scenario,
                    const Schedule &schedule, const RunOptions &opts,
                    uint32_t conn_index, const Stopwatch &run_clock,
                    RunState &state)
{
    std::vector<const LoadRequest *> mine;
    for (const LoadRequest &item : schedule.requests) {
        if (item.connection == conn_index)
            mine.push_back(&item);
    }
    if (mine.empty())
        return;

    ServiceClient client(opts.socketPath);
    if (!client.connected()) {
        warn("unizk_load: connection ", conn_index, " failed");
        chargeSkipped(state, mine.size());
        return;
    }
    for (size_t i = 0; i < mine.size(); ++i) {
        if (!issueOne(client, scenario, opts, *mine[i], run_clock,
                      state)) {
            chargeSkipped(state, mine.size() - i - 1);
            return;
        }
    }
}

/**
 * Open-loop worker: pull the next undispatched entry, sleep until its
 * scheduled arrival, issue it. A worker whose transport dies stops
 * pulling; surviving workers keep draining the schedule, so a single
 * bad connection does not strand the rest of the run.
 */
void
runOpenWorker(const Scenario &scenario, const Schedule &schedule,
              const RunOptions &opts, std::atomic<size_t> &cursor,
              const Stopwatch &run_clock, RunState &state)
{
    ServiceClient client(opts.socketPath);
    if (!client.connected()) {
        warn("unizk_load: open-loop worker connection failed");
        return; // entries stay for other workers; leftovers charged later
    }
    for (;;) {
        const size_t i =
            cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= schedule.requests.size())
            return;
        const LoadRequest &item = schedule.requests[i];
        const uint64_t now_ns = static_cast<uint64_t>(
            run_clock.elapsedSeconds() * 1e9);
        if (item.arrivalNs > now_ns) {
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(item.arrivalNs - now_ns));
        }
        if (!issueOne(client, scenario, opts, item, run_clock, state)) {
            // This entry is already charged; put no others at risk.
            return;
        }
    }
}

} // namespace

ReferenceProofs
referenceProofs(const Schedule &schedule)
{
    service::KeyCache cache;
    std::map<service::ShapeKey, std::vector<uint8_t>> by_shape;
    ReferenceProofs refs;
    for (const LoadRequest &item : schedule.requests) {
        if (refs.count(item.key) != 0)
            continue;
        const service::ShapeKey shape = service::shapeKeyOf(item.request);
        auto it = by_shape.find(shape);
        if (it == by_shape.end()) {
            it = by_shape
                     .emplace(shape,
                              service::runRequest(item.request, cache)
                                  .proofBlob)
                     .first;
        }
        refs[item.key] = it->second;
    }
    return refs;
}

RunReport
runScenario(const Scenario &scenario, const Schedule &schedule,
            const RunOptions &opts)
{
    if (!opts.references.empty()) {
        for (const LoadRequest &item : schedule.requests) {
            unizk_assert(opts.references.count(item.key) != 0,
                         "no reference proof for a schedule key");
        }
    }

    // A fresh capture window: the latency histogram and percentiles
    // below describe exactly this schedule, not earlier runs or setup.
    obs::resetForMeasurement();

    RunState state;
    {
        MutexLock lock(state.mutex);
        state.perApp.assign(scenario.mix.size(), 0);
    }
    const Stopwatch run_clock;

    std::vector<std::thread> workers;
    if (scenario.arrival == Arrival::ClosedLoop) {
        for (uint32_t c = 0; c < scenario.connections; ++c) {
            workers.emplace_back([&, c] {
                runClosedConnection(scenario, schedule, opts, c,
                                    run_clock, state);
            });
        }
    } else {
        std::atomic<size_t> cursor{0};
        for (uint64_t c = 0; c < scenario.connections; ++c) {
            workers.emplace_back([&] {
                runOpenWorker(scenario, schedule, opts, cursor,
                              run_clock, state);
            });
        }
        for (auto &w : workers)
            w.join();
        workers.clear();
    }
    for (auto &w : workers)
        w.join();

    RunReport report;
    report.issued = schedule.requests.size();
    report.elapsedSeconds = run_clock.elapsedSeconds();
    {
        MutexLock lock(state.mutex);
        report.ok = state.ok;
        report.queueFull = state.queueFull;
        report.shuttingDown = state.shuttingDown;
        report.errors = state.errors;
        report.queueDepth = std::move(state.queueDepth);
        report.samples = std::move(state.samples);
        report.breakdownViolations = state.breakdownViolations;
        for (size_t i = 0; i < scenario.mix.size(); ++i) {
            PerAppCount entry;
            entry.protocol = scenario.mix[i].protocol;
            entry.app = scenario.mix[i].app;
            entry.count = state.perApp[i];
            report.perApp.push_back(entry);
        }
    }
    // Dead open-loop workers leave unpulled entries behind; keep the
    // every-entry-accounted invariant by charging them as errors.
    const uint64_t accounted = report.ok + report.queueFull +
                               report.shuttingDown + report.errors;
    unizk_assert(accounted <= report.issued,
                 "load accounting overcounted the schedule");
    report.errors += report.issued - accounted;

    std::sort(report.queueDepth.begin(), report.queueDepth.end(),
              [](const QueueSample &a, const QueueSample &b) {
                  return a.tNs < b.tNs;
              });
    std::sort(report.samples.begin(), report.samples.end(),
              [](const RequestSample &a, const RequestSample &b) {
                  return a.traceId < b.traceId;
              });
    if (report.elapsedSeconds > 0.0) {
        report.throughputRps =
            static_cast<double>(report.ok) / report.elapsedSeconds;
    }

    const auto histos = obs::histogramSnapshot();
    const auto it = histos.find("load.request_latency_ns");
    if (it != histos.end() && it->second.count > 0) {
        const obs::HistogramData &h = it->second;
        report.latency.count = h.count;
        report.latency.minNs = h.min;
        report.latency.maxNs = h.max;
        report.latency.meanNs = static_cast<double>(h.sum) /
                                static_cast<double>(h.count);
        report.latency.p50Ns = obs::histogramQuantile(h, 0.5);
        report.latency.p90Ns = obs::histogramQuantile(h, 0.9);
        report.latency.p99Ns = obs::histogramQuantile(h, 0.99);
    }
    return report;
}

std::string
reportToJson(const Scenario &scenario, uint64_t seed,
             const RunReport &report)
{
    obs::JsonWriter w;
    w.beginObject();
    w.kv("schema", "unizk-load-v1");

    w.key("scenario").beginObject();
    w.kv("name", scenario.name);
    w.kv("arrival", arrivalName(scenario.arrival));
    w.kv("skew", skewName(scenario.skew));
    if (scenario.skew == Skew::Zipfian)
        w.kv("zipfianTheta", scenario.zipfianTheta);
    if (scenario.arrival == Arrival::OpenPoisson)
        w.kv("openRateRps", scenario.openRateRps);
    w.kv("seed", seed);
    w.kv("requests", scenario.requests);
    w.kv("connections", scenario.connections);
    w.kv("keySpace", scenario.keySpace);
    w.key("mix").beginArray();
    for (const MixEntry &e : scenario.mix) {
        w.beginObject();
        w.kv("protocol",
             e.protocol == service::WireProtocol::Plonky2 ? "plonky2"
                                                          : "starky");
        w.kv("app", appToken(e.app));
        w.kv("weight", e.weight);
        w.kv("minRows", e.minRows);
        w.kv("maxRows", e.maxRows);
        w.kv("reps", e.reps);
        w.endObject();
    }
    w.endArray();
    w.endObject();

    w.key("results").beginObject();
    w.kv("issued", report.issued);
    w.kv("ok", report.ok);
    w.kv("queueFull", report.queueFull);
    w.kv("shuttingDown", report.shuttingDown);
    w.kv("errors", report.errors);
    w.kv("elapsedSeconds", report.elapsedSeconds);
    w.kv("throughputRps", report.throughputRps);

    w.key("latencyNs").beginObject();
    w.kv("count", report.latency.count);
    w.kv("min", report.latency.minNs);
    w.kv("max", report.latency.maxNs);
    w.kv("mean", report.latency.meanNs);
    w.kv("p50", report.latency.p50Ns);
    w.kv("p90", report.latency.p90Ns);
    w.kv("p99", report.latency.p99Ns);
    w.endObject();

    // Client-observed vs server-observed latency. Means first, then
    // one entry per traced ok response so the schema validator can
    // re-check the per-request inequality chain.
    w.key("breakdown").beginObject();
    w.kv("traced", static_cast<uint64_t>(report.samples.size()));
    w.kv("violations", report.breakdownViolations);
    if (!report.samples.empty()) {
        uint64_t sum_client = 0;
        uint64_t sum_server = 0;
        uint64_t sum_queued = 0;
        uint64_t sum_prove = 0;
        uint64_t sum_serialize = 0;
        for (const RequestSample &s : report.samples) {
            sum_client += s.clientNs;
            sum_server += s.serverNs;
            sum_queued += s.queuedNs;
            sum_prove += s.proveNs;
            sum_serialize += s.serializeNs;
        }
        const double n = static_cast<double>(report.samples.size());
        w.kv("meanClientNs", static_cast<double>(sum_client) / n);
        w.kv("meanServerNs", static_cast<double>(sum_server) / n);
        w.kv("meanQueuedNs", static_cast<double>(sum_queued) / n);
        w.kv("meanProveNs", static_cast<double>(sum_prove) / n);
        w.kv("meanSerializeNs",
             static_cast<double>(sum_serialize) / n);
        w.kv("meanResidualNs",
             (static_cast<double>(sum_client) -
              static_cast<double>(sum_server)) /
                 n);
    }
    w.key("samples").beginArray();
    for (const RequestSample &s : report.samples) {
        w.beginObject();
        w.kv("traceId", s.traceId);
        w.kv("laneId", s.laneId);
        w.kv("clientNs", s.clientNs);
        w.kv("serverNs", s.serverNs);
        w.kv("queuedNs", s.queuedNs);
        w.kv("proveNs", s.proveNs);
        w.kv("serializeNs", s.serializeNs);
        w.endObject();
    }
    w.endArray();
    w.endObject();

    w.key("queueDepth").beginArray();
    for (const QueueSample &s : report.queueDepth) {
        w.beginObject();
        w.kv("tNs", s.tNs);
        w.kv("depth", s.depth);
        w.endObject();
    }
    w.endArray();

    w.key("perApp").beginArray();
    for (const PerAppCount &p : report.perApp) {
        w.beginObject();
        w.kv("protocol",
             p.protocol == service::WireProtocol::Plonky2 ? "plonky2"
                                                          : "starky");
        w.kv("app", appToken(p.app));
        w.kv("count", p.count);
        w.endObject();
    }
    w.endArray();

    w.endObject();
    w.endObject();
    return w.str();
}

} // namespace load
} // namespace unizk
