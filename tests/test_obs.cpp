/**
 * @file
 * Tests for the observability subsystem: span recording (nesting,
 * thread attribution, drain semantics), the named-counter registry
 * (cross-thread merge, disabled no-op), the thread-safe
 * KernelTimeBreakdown accumulator (exercised under TSAN in CI), the
 * stats / Chrome-trace JSON schemas, and the end-to-end guarantees --
 * stats JSON matches the SimReport exactly and proofs are
 * byte-identical with observability on or off.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <initializer_list>
#include <map>
#include <limits>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "common/thread_pool.h"
#include "obs/exposition.h"
#include "obs/folded_export.h"
#include "obs/json_writer.h"
#include "obs/obs.h"
#include "obs/stats_export.h"
#include "obs/trace_export.h"
#include "unizk/pipeline.h"

namespace unizk {
namespace {

#if defined(UNIZK_OBS_DISABLE)
#define SKIP_IF_OBS_DISABLED()                                            \
    GTEST_SKIP() << "observability compiled out (UNIZK_DISABLE_OBS)"
#else
#define SKIP_IF_OBS_DISABLED() (void)0
#endif

/** Every test starts from a clean, enabled capture window and leaves
 *  observability off so other binaries' behaviour is unaffected. */
class ObsTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        obs::setEnabled(true);
        obs::resetAll();
    }
    void
    TearDown() override
    {
        obs::setEnabled(false);
        obs::resetAll();
    }
};

TEST_F(ObsTest, SpanNestingOnOneThread)
{
    {
        obs::Span outer("outer");
        {
            obs::Span inner("inner");
        }
    }
    const std::vector<obs::SpanEvent> spans = obs::drainSpans();
    ASSERT_EQ(spans.size(), 2u);
    // Sorted by (threadId, startNs): the outer span opened first.
    EXPECT_STREQ(spans[0].name, "outer");
    EXPECT_STREQ(spans[1].name, "inner");
    EXPECT_EQ(spans[0].depth, 0u);
    EXPECT_EQ(spans[1].depth, 1u);
    EXPECT_EQ(spans[0].threadId, spans[1].threadId);
    // The child interval nests inside the parent interval.
    EXPECT_LE(spans[0].startNs, spans[1].startNs);
    EXPECT_GE(spans[0].endNs, spans[1].endNs);
    EXPECT_LE(spans[1].startNs, spans[1].endNs);
    // Draining moved the events out.
    EXPECT_TRUE(obs::drainSpans().empty());
}

TEST_F(ObsTest, SpansAttributeToDistinctThreads)
{
    constexpr unsigned kThreads = 4;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([] { obs::Span span("worker"); });
    }
    for (auto &t : threads)
        t.join();

    const std::vector<obs::SpanEvent> spans = obs::drainSpans();
    ASSERT_EQ(spans.size(), kThreads);
    std::set<uint32_t> tids;
    for (const obs::SpanEvent &s : spans) {
        EXPECT_STREQ(s.name, "worker");
        tids.insert(s.threadId);
    }
    // Each raw thread owns its own buffer and id.
    EXPECT_EQ(tids.size(), kThreads);
}

TEST_F(ObsTest, SpansRecordedInsideParallelFor)
{
    SKIP_IF_OBS_DISABLED();
    setGlobalThreadCount(4);
    constexpr size_t kItems = 32;
    std::atomic<size_t> visited{0};
    parallelFor(0, kItems, 1, [&](size_t lo, size_t hi) {
        UNIZK_SPAN("pool-chunk");
        visited.fetch_add(hi - lo, std::memory_order_relaxed);
    });
    ASSERT_EQ(visited.load(), kItems);
    // One span per executed chunk, none lost to races.
    const std::vector<obs::SpanEvent> spans = obs::drainSpans();
    EXPECT_GT(spans.size(), 1u);
    for (const obs::SpanEvent &s : spans)
        EXPECT_STREQ(s.name, "pool-chunk");
}

TEST_F(ObsTest, DisabledRecordsNothing)
{
    SKIP_IF_OBS_DISABLED();
    obs::setEnabled(false);
    {
        obs::Span span("invisible");
        UNIZK_COUNTER_ADD("test.obs.disabled", 17);
    }
    EXPECT_TRUE(obs::drainSpans().empty());
    const auto counters = obs::counterSnapshot();
    const auto it = counters.find("test.obs.disabled");
    if (it != counters.end()) {
        EXPECT_EQ(it->second, 0u);
    }
}

TEST_F(ObsTest, CountersMergeAcrossThreads)
{
    SKIP_IF_OBS_DISABLED();
    constexpr unsigned kThreads = 8;
    constexpr uint64_t kPerThread = 1000;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([] {
            for (uint64_t i = 0; i < kPerThread; ++i)
                UNIZK_COUNTER_ADD("test.obs.merge", 1);
        });
    }
    for (auto &t : threads)
        t.join();
    const auto counters = obs::counterSnapshot();
    const auto it = counters.find("test.obs.merge");
    ASSERT_NE(it, counters.end());
    EXPECT_EQ(it->second, kThreads * kPerThread);
}

TEST_F(ObsTest, ResetClearsCounters)
{
    SKIP_IF_OBS_DISABLED();
    UNIZK_COUNTER_ADD("test.obs.reset", 5);
    obs::resetAll();
    const auto counters = obs::counterSnapshot();
    const auto it = counters.find("test.obs.reset");
    ASSERT_NE(it, counters.end());
    EXPECT_EQ(it->second, 0u);
}

TEST_F(ObsTest, SpansRecordParentNames)
{
    {
        obs::Span outer("outer");
        {
            obs::Span inner("inner");
            {
                obs::Span leaf("leaf");
            }
        }
        obs::Span sibling("sibling");
    }
    const std::vector<obs::SpanEvent> spans = obs::drainSpans();
    ASSERT_EQ(spans.size(), 4u);
    // Sorted by startNs on one thread: outer, inner, leaf, sibling.
    EXPECT_EQ(spans[0].parent, nullptr);
    EXPECT_STREQ(spans[1].parent, "outer");
    EXPECT_STREQ(spans[2].parent, "inner");
    EXPECT_STREQ(spans[3].parent, "outer");
    EXPECT_EQ(spans[2].depth, 2u);
    EXPECT_EQ(spans[3].depth, 1u);
}

TEST_F(ObsTest, SpanStackUnwindsThroughExceptions)
{
    SKIP_IF_OBS_DISABLED();
    try {
        obs::Span outer("outer");
        obs::Span inner("inner");
        throw std::runtime_error("boom");
    } catch (const std::exception &) {
    }
    // Both spans closed during unwinding; a new root sees an empty
    // stack, not stale parents from the aborted scope.
    {
        obs::Span after("after");
    }
    const std::vector<obs::SpanEvent> spans = obs::drainSpans();
    ASSERT_EQ(spans.size(), 3u);
    for (const obs::SpanEvent &s : spans) {
        if (std::string(s.name) == "after") {
            EXPECT_EQ(s.parent, nullptr);
            EXPECT_EQ(s.depth, 0u);
        }
    }
}

TEST_F(ObsTest, HistogramsMergeAcrossThreads)
{
    SKIP_IF_OBS_DISABLED();
    constexpr unsigned kThreads = 8;
    constexpr uint64_t kPerThread = 100;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([t] {
            for (uint64_t i = 0; i < kPerThread; ++i)
                UNIZK_OBS_HISTO("test.obs.histo_merge", t * 1000 + i);
        });
    }
    for (auto &t : threads)
        t.join();

    const auto histos = obs::histogramSnapshot();
    const auto it = histos.find("test.obs.histo_merge");
    ASSERT_NE(it, histos.end());
    const obs::HistogramData &h = it->second;
    EXPECT_EQ(h.count, kThreads * kPerThread);
    EXPECT_EQ(h.min, 0u);
    EXPECT_EQ(h.max, 7099u);
    uint64_t expected_sum = 0, bucket_sum = 0;
    for (unsigned t = 0; t < kThreads; ++t) {
        for (uint64_t i = 0; i < kPerThread; ++i)
            expected_sum += t * 1000 + i;
    }
    EXPECT_EQ(h.sum, expected_sum);
    for (const uint64_t b : h.buckets)
        bucket_sum += b;
    EXPECT_EQ(bucket_sum, h.count);
}

TEST_F(ObsTest, HistogramLog2BucketBoundaries)
{
    SKIP_IF_OBS_DISABLED();
    // Bucket 0 holds the value 0; bucket i holds [2^(i-1), 2^i - 1].
    for (const uint64_t v : std::initializer_list<uint64_t>{
             0, 1, 2, 3, 4, 1023, 1024, UINT64_MAX})
        UNIZK_OBS_HISTO("test.obs.histo_buckets", v);
    const auto histos = obs::histogramSnapshot();
    const obs::HistogramData &h = histos.at("test.obs.histo_buckets");
    EXPECT_EQ(h.buckets[0], 1u);  // 0
    EXPECT_EQ(h.buckets[1], 1u);  // 1
    EXPECT_EQ(h.buckets[2], 2u);  // 2, 3
    EXPECT_EQ(h.buckets[3], 1u);  // 4
    EXPECT_EQ(h.buckets[10], 1u); // 1023
    EXPECT_EQ(h.buckets[11], 1u); // 1024
    EXPECT_EQ(h.buckets[64], 1u); // UINT64_MAX
    EXPECT_EQ(h.min, 0u);
    EXPECT_EQ(h.max, UINT64_MAX);
}

using ObsConcurrency = ObsTest;

/**
 * Pins the relaxed-atomics contract audited in src/obs/obs.cpp
 * (DESIGN section 6.7): recording uses only relaxed operations on
 * thread-owned blocks, and exporters may run concurrently -- they get
 * a torn-but-valid view mid-flight and an exact one at quiescence.
 * Writers hammer a shared Counter and Histogram while an exporter
 * thread loops counterSnapshot / histogramSnapshot /
 * histogramQuantile; the CI TSAN leg turns any missing
 * synchronization edge (registration publish, CAS min/max) into a
 * failure, and the post-join totals must be exact.
 */
TEST_F(ObsConcurrency, RelaxedAtomicsSafeUnderConcurrentExport)
{
    SKIP_IF_OBS_DISABLED();
    constexpr unsigned kWriters = 4;
    constexpr uint64_t kPerWriter = 20000;

    obs::Counter counter("test.obs.conc_counter");
    obs::Histogram histo("test.obs.conc_histo");
    std::atomic<bool> writers_done{false};

    std::vector<std::thread> writers;
    for (unsigned w = 0; w < kWriters; ++w) {
        writers.emplace_back([&, w] {
            // Registration of this thread's blocks happens on first
            // use, racing the exporter's registry walk.
            for (uint64_t i = 0; i < kPerWriter; ++i) {
                counter.add(1);
                histo.record(w * kPerWriter + i);
            }
        });
    }

    // Concurrent exporter: every intermediate view must be internally
    // valid (counts never exceed the final total, bucket sums match
    // the count field's monotonic progress, quantiles stay finite).
    std::thread exporter([&] {
        uint64_t last_count = 0;
        while (!writers_done.load(std::memory_order_acquire)) {
            const auto counters = obs::counterSnapshot();
            const auto it = counters.find("test.obs.conc_counter");
            if (it != counters.end()) {
                EXPECT_LE(it->second, kWriters * kPerWriter);
                EXPECT_GE(it->second, last_count);
                last_count = it->second;
            }
            const auto histos = obs::histogramSnapshot();
            const auto hit = histos.find("test.obs.conc_histo");
            if (hit != histos.end()) {
                EXPECT_LE(hit->second.count, kWriters * kPerWriter);
                const double p99 =
                    obs::histogramQuantile(hit->second, 0.99);
                EXPECT_TRUE(std::isfinite(p99));
            }
        }
    });

    for (auto &t : writers)
        t.join();
    writers_done.store(true, std::memory_order_release);
    exporter.join();

    // Quiescent point: totals are exact, not approximate.
    const auto counters = obs::counterSnapshot();
    EXPECT_EQ(counters.at("test.obs.conc_counter"),
              kWriters * kPerWriter);
    const auto histos = obs::histogramSnapshot();
    const obs::HistogramData &h = histos.at("test.obs.conc_histo");
    EXPECT_EQ(h.count, kWriters * kPerWriter);
    EXPECT_EQ(h.min, 0u);
    EXPECT_EQ(h.max, kWriters * kPerWriter - 1);
    uint64_t bucket_sum = 0;
    for (const uint64_t b : h.buckets)
        bucket_sum += b;
    EXPECT_EQ(bucket_sum, h.count);
}

TEST_F(ObsTest, SpanDurationsFeedBuiltinHistogram)
{
    SKIP_IF_OBS_DISABLED();
    {
        obs::Span span("timed");
    }
    const auto histos = obs::histogramSnapshot();
    const auto it = histos.find("obs.span_duration_ns");
    ASSERT_NE(it, histos.end());
    EXPECT_GE(it->second.count, 1u);
}

TEST_F(ObsTest, ResetForMeasurementDropsWarmupState)
{
    SKIP_IF_OBS_DISABLED();
    // Warmup work: spans, counters and histograms that must NOT leak
    // into the exported artifacts (regression: bench harnesses used to
    // export warmup spans/counters along with the measured run).
    {
        obs::Span warm("warmup");
        UNIZK_COUNTER_ADD("test.obs.boundary", 100);
        UNIZK_OBS_HISTO("test.obs.boundary_histo", 42);
    }
    obs::resetForMeasurement();
    {
        obs::Span measured("measured");
        UNIZK_COUNTER_ADD("test.obs.boundary", 7);
    }

    const std::vector<obs::SpanEvent> spans = obs::drainSpans();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_STREQ(spans[0].name, "measured");

    const auto counters = obs::counterSnapshot();
    EXPECT_EQ(counters.at("test.obs.boundary"), 7u);

    const auto histos = obs::histogramSnapshot();
    EXPECT_EQ(histos.at("test.obs.boundary_histo").count, 0u);
}

TEST(ObsDisabled, ResetForMeasurementIsNoOp)
{
    obs::setEnabled(false);
    obs::resetForMeasurement(); // must not crash or register anything
    EXPECT_TRUE(obs::drainSpans().empty());
}

TEST_F(ObsTest, FoldedExportCollapsesStacks)
{
    SKIP_IF_OBS_DISABLED();
    std::vector<obs::SpanEvent> spans;
    // Thread 0: root [0,100], child [10,40], child [50,70].
    spans.push_back({"root", nullptr, 0, 100, 0, 0});
    spans.push_back({"child", "root", 10, 40, 0, 1});
    spans.push_back({"child", "root", 50, 70, 0, 1});
    // Thread 1: its own root.
    spans.push_back({"other", nullptr, 0, 30, 1, 0});

    const std::string folded = obs::spansToFolded(spans);
    // Self time: root 100 - 30 - 20 = 50; both child intervals fold
    // into one row; the second thread contributes its own root row.
    EXPECT_NE(folded.find("root 50\n"), std::string::npos) << folded;
    EXPECT_NE(folded.find("root;child 50\n"), std::string::npos)
        << folded;
    EXPECT_NE(folded.find("other 30\n"), std::string::npos) << folded;
}

TEST_F(ObsTest, FoldedExportFromLiveSpans)
{
    SKIP_IF_OBS_DISABLED();
    {
        obs::Span outer("live-outer");
        {
            obs::Span inner("live-inner");
        }
    }
    const std::string folded = obs::spansToFolded(obs::drainSpans());
    EXPECT_NE(folded.find("live-outer;live-inner "), std::string::npos)
        << folded;
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull)
{
    obs::JsonWriter w;
    w.beginObject();
    w.kv("nan", std::nan(""));
    w.kv("inf", std::numeric_limits<double>::infinity());
    w.kv("ninf", -std::numeric_limits<double>::infinity());
    w.kv("ok", 1.5);
    w.endObject();
    const std::string json = w.str();
    EXPECT_NE(json.find("\"nan\": null"), std::string::npos) << json;
    EXPECT_NE(json.find("\"inf\": null"), std::string::npos) << json;
    EXPECT_NE(json.find("\"ninf\": null"), std::string::npos) << json;
    EXPECT_NE(json.find("\"ok\": 1.5"), std::string::npos) << json;
}

TEST(JsonWriter, EscapesControlAndQuoteCharacters)
{
    obs::JsonWriter w;
    w.beginObject();
    w.kv("s", std::string("a\"b\\c\n\t\x01"));
    w.endObject();
    const std::string json = w.str();
    EXPECT_NE(json.find("a\\\"b\\\\c\\n\\t\\u0001"), std::string::npos)
        << json;
}

TEST(KernelTimeBreakdown, ConcurrentAddIsExact)
{
    // Regression for the data race ScopedKernelTimer used to cause when
    // worker threads timed kernels concurrently; run under TSAN in CI.
    KernelTimeBreakdown b;
    constexpr unsigned kThreads = 8;
    constexpr unsigned kAdds = 1000;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&b] {
            for (unsigned i = 0; i < kAdds; ++i)
                b.add(KernelClass::Ntt, 0.001);
        });
    }
    for (auto &t : threads)
        t.join();
    // 8000 adds of exactly 1e6 ns each: no update may be lost.
    EXPECT_DOUBLE_EQ(b.seconds(KernelClass::Ntt), 8.0);
    EXPECT_DOUBLE_EQ(b.total(), 8.0);
}

TEST(KernelTimeBreakdown, CopyAndScaleStillWork)
{
    KernelTimeBreakdown b;
    b.add(KernelClass::MerkleTree, 2.0);
    b.add(KernelClass::Ntt, 1.0);
    const KernelTimeBreakdown copy = b;
    EXPECT_DOUBLE_EQ(copy.seconds(KernelClass::MerkleTree), 2.0);
    const KernelTimeBreakdown half = b.scaledBy(0.5);
    EXPECT_DOUBLE_EQ(half.seconds(KernelClass::Ntt), 0.5);
    KernelTimeBreakdown sum;
    sum += b;
    sum += half;
    EXPECT_DOUBLE_EQ(sum.total(), 3.0 + 1.5);
}

TEST(ObsExport, StatsJsonGoldenSchema)
{
    obs::RunStats run;
    run.app = "fibonacci";
    run.protocol = "plonky2";
    run.rows = 128;
    run.repetitions = 2;
    run.threads = 4;
    run.cpuSeconds = 1.25;
    run.proofBytes = 4096;
    run.verified = true;
    // Three recorded values: 1, 1, 5.
    obs::HistogramData histo;
    histo.count = 3;
    histo.sum = 7;
    histo.min = 1;
    histo.max = 5;
    histo.buckets[1] = 2; // bucket [1, 1]
    histo.buckets[3] = 1; // bucket [4, 7]
    const std::string json = obs::statsToJson(
        {run}, {{"test.counter", 42}}, {{"test.histo", histo}});

    for (const char *needle :
         {"\"schema\": \"unizk-stats-v2\"", "\"runs\": [",
          "\"app\": \"fibonacci\"", "\"protocol\": \"plonky2\"",
          "\"rows\": 128", "\"repetitions\": 2", "\"threads\": 4",
          "\"cpu\": {", "\"totalSeconds\": 1.25", "\"breakdown\": {",
          "\"proof\": {", "\"bytes\": 4096", "\"verified\": true",
          "\"sim\": {", "\"perClass\": {", "\"busBytes\"",
          "\"usefulBytes\"", "\"memUtilization\"", "\"usefulFraction\"",
          "\"hwCounters\": {", "\"vsa\": {", "\"busyCycles\": [",
          "\"stallCycles\": [", "\"idleCycles\": [", "\"dram\": {",
          "\"rowHits\"", "\"rowMisses\"", "\"bankConflicts\"",
          "\"bankBytes\": [", "\"scratchpad\": {", "\"highWaterBytes\"",
          "\"evictions\"", "\"timeline\": {", "\"samplePeriodCycles\"",
          "\"samples\": [", "\"counters\": {", "\"test.counter\": 42",
          "\"histograms\": {", "\"test.histo\": {", "\"count\": 3",
          "\"sum\": 7", "\"min\": 1", "\"max\": 5", "\"buckets\": [",
          "\"lo\": 1", "\"hi\": 1", "\"lo\": 4", "\"hi\": 7"}) {
        EXPECT_NE(json.find(needle), std::string::npos)
            << "missing " << needle;
    }
    // Empty buckets are omitted from the document.
    EXPECT_EQ(json.find("\"lo\": 2"), std::string::npos);
}

TEST(ObsExport, ChromeTraceGoldenSchema)
{
    obs::SpanEvent span;
    span.name = "plonk/prove";
    span.startNs = 1000;
    span.endNs = 51000;
    span.threadId = 0;
    span.depth = 0;

    KernelTrace trace;
    trace.ops.push_back({HashKernel{256}, "pow"});

    obs::ChromeTraceBuilder builder;
    builder.addSpans({span});
    builder.addSimLane("unizk", trace, HardwareConfig::paperDefault());
    const std::string json = builder.build();

    for (const char *needle :
         {"\"traceEvents\": [", "\"ph\": \"M\"",
          "\"name\": \"process_name\"", "\"name\": \"cpu prover\"",
          "\"name\": \"sim: unizk\"", "\"ph\": \"X\"",
          "\"name\": \"plonk/prove\"", "\"cat\": \"cpu\"",
          "\"name\": \"pow\"", "\"cycles\":", "\"dur\": 50",
          // Every lane carries thread_name metadata ...
          "\"name\": \"thread_name\"", "\"name\": \"cpu thread 0\"",
          "\"name\": \"kernels\"",
          // ... and sim lanes carry counter series.
          "\"ph\": \"C\"", "\"name\": \"vsa occupancy\"",
          "\"name\": \"queue depth\"", "\"value\":"}) {
        EXPECT_NE(json.find(needle), std::string::npos)
            << "missing " << needle;
    }
}

TEST_F(ObsTest, StatsJsonMatchesSimReport)
{
    const FriConfig cfg = FriConfig::testing();
    const HardwareConfig hw = HardwareConfig::paperDefault();
    const AppRunResult r =
        runPlonky2App(AppId::Fibonacci, 128, 2, cfg, hw);
    ASSERT_TRUE(r.verified);

    const obs::RunStats stats = toRunStats(r, "plonky2", 1);
    const std::string json =
        obs::statsToJson({stats}, obs::counterSnapshot());

    // The numbers in the JSON are exactly the SimReport / run values.
    const std::vector<std::string> needles = {
        "\"totalCycles\": " + std::to_string(r.sim.totalCycles),
        "\"readRequests\": " + std::to_string(r.sim.totalReadRequests()),
        "\"writeRequests\": " +
            std::to_string(r.sim.totalWriteRequests()),
        "\"bytes\": " + std::to_string(r.proofBytes),
        "\"rows\": 128",
        "\"verified\": true",
        "\"kernels\": " +
            std::to_string(r.sim.classStats(KernelClass::Ntt).kernels),
        "\"busBytes\": " +
            std::to_string(r.sim.classStats(KernelClass::Ntt).busBytes),
    };
    for (const std::string &needle : needles)
        EXPECT_NE(json.find(needle), std::string::npos)
            << "missing " << needle;

#if !defined(UNIZK_OBS_DISABLE)
    // Instrumented code paths ran, so the standard counters are live.
    // (With UNIZK_DISABLE_OBS the macros compile out and nothing is
    // ever registered.)
    const auto counters = obs::counterSnapshot();
    for (const char *name : {"ntt.transforms", "merkle.trees",
                             "challenger.permutations",
                             "sim.kernel_ops"}) {
        const auto it = counters.find(name);
        ASSERT_NE(it, counters.end()) << name;
        EXPECT_GT(it->second, 0u) << name;
    }
#endif
}

TEST_F(ObsTest, ProofBytesIdenticalWithObsOnAndOff)
{
    const FriConfig cfg = FriConfig::testing();
    const HardwareConfig hw = HardwareConfig::paperDefault();

    obs::setEnabled(false);
    obs::resetAll();
    const AppRunResult off =
        runPlonky2App(AppId::Factorial, 128, 2, cfg, hw);

    obs::setEnabled(true);
    obs::resetAll();
    const AppRunResult on =
        runPlonky2App(AppId::Factorial, 128, 2, cfg, hw);

    ASSERT_FALSE(off.proofBlob.empty());
    EXPECT_EQ(off.proofBlob, on.proofBlob);
    EXPECT_TRUE(off.verified);
    EXPECT_TRUE(on.verified);
}

TEST_F(ObsTest, SnapshotDeltaPartitionsCumulative)
{
    SKIP_IF_OBS_DISABLED();
    UNIZK_COUNTER_ADD("test.obs.window", 5);
    UNIZK_OBS_HISTO("test.obs.window_histo", 100);

    const obs::StatsSnapshot first = obs::snapshotDelta();
    EXPECT_EQ(first.sequence, 1u);
    EXPECT_LE(first.windowStartNs, first.windowEndNs);
    {
        const obs::CounterWindow &c =
            first.counters.at("test.obs.window");
        EXPECT_EQ(c.delta, 5u);
        EXPECT_EQ(c.cumulative, 5u);
    }
    {
        const obs::HistogramWindow &h =
            first.histograms.at("test.obs.window_histo");
        EXPECT_EQ(h.delta.count, 1u);
        EXPECT_EQ(h.delta.sum, 100u);
        EXPECT_EQ(h.cumulative.count, 1u);
    }

    UNIZK_COUNTER_ADD("test.obs.window", 3);
    const obs::StatsSnapshot second = obs::snapshotDelta();
    EXPECT_EQ(second.sequence, 2u);
    // Window intervals chain: no gap, no overlap.
    EXPECT_EQ(second.windowStartNs, first.windowEndNs);
    {
        const obs::CounterWindow &c =
            second.counters.at("test.obs.window");
        EXPECT_EQ(c.delta, 3u);
        EXPECT_EQ(c.cumulative, 8u);
    }
    // Nothing recorded in between: the histogram window is empty but
    // the cumulative side persists.
    {
        const obs::HistogramWindow &h =
            second.histograms.at("test.obs.window_histo");
        EXPECT_EQ(h.delta.count, 0u);
        EXPECT_EQ(h.cumulative.count, 1u);
    }

    const obs::StatsSnapshot third = obs::snapshotDelta();
    EXPECT_EQ(third.sequence, 3u);
    EXPECT_EQ(third.counters.at("test.obs.window").delta, 0u);
    EXPECT_EQ(third.counters.at("test.obs.window").cumulative, 8u);
}

TEST_F(ObsTest, SnapshotDeltaWindowMinMaxCoverOnlyTheWindow)
{
    SKIP_IF_OBS_DISABLED();
    // Window 1 records an outlier; window 2 must not inherit it into
    // its delta extremes (the cumulative side keeps it, as documented).
    UNIZK_OBS_HISTO("test.obs.window_extremes", 1000000);
    (void)obs::snapshotDelta();

    UNIZK_OBS_HISTO("test.obs.window_extremes", 10);
    UNIZK_OBS_HISTO("test.obs.window_extremes", 20);
    const obs::StatsSnapshot snap = obs::snapshotDelta();
    const obs::HistogramWindow &h =
        snap.histograms.at("test.obs.window_extremes");
    EXPECT_EQ(h.delta.count, 2u);
    EXPECT_EQ(h.delta.min, 10u);
    EXPECT_EQ(h.delta.max, 20u);
    EXPECT_EQ(h.cumulative.min, 10u);
    EXPECT_EQ(h.cumulative.max, 1000000u);
}

TEST_F(ObsTest, ResetForMeasurementResetsHistogramWatermarks)
{
    SKIP_IF_OBS_DISABLED();
    // Regression: resetForMeasurement() used to zero counts and
    // buckets but leave the min/max watermarks, so a warmup outlier
    // survived into the measured window's quantile clamp.
    UNIZK_OBS_HISTO("test.obs.watermark", 1000000);
    obs::resetForMeasurement();
    UNIZK_OBS_HISTO("test.obs.watermark", 10);
    UNIZK_OBS_HISTO("test.obs.watermark", 20);

    const auto histos = obs::histogramSnapshot();
    const obs::HistogramData &h = histos.at("test.obs.watermark");
    EXPECT_EQ(h.count, 2u);
    EXPECT_EQ(h.min, 10u);
    EXPECT_EQ(h.max, 20u);
    // The quantile clamp must use the post-reset extremes.
    EXPECT_LE(obs::histogramQuantile(h, 1.0), 20.0);

    // The rotation stream restarted too.
    const obs::StatsSnapshot snap = obs::snapshotDelta();
    EXPECT_EQ(snap.sequence, 1u);
    EXPECT_EQ(snap.histograms.at("test.obs.watermark").delta.count, 2u);
}

/**
 * The windowed-snapshot contract under fire (TSAN leg in CI): writers
 * hammer a counter and a histogram while a rotator loops
 * snapshotDelta(). Every window must chain onto the previous one with
 * a consecutive sequence number, and at quiescence the deltas summed
 * across every window ever taken must equal the cumulative totals
 * EXACTLY -- rotation loses nothing and double-counts nothing.
 */
TEST_F(ObsConcurrency, SnapshotDeltaConcurrentWritersPartitionExactly)
{
    SKIP_IF_OBS_DISABLED();
    constexpr unsigned kWriters = 4;
    constexpr uint64_t kPerWriter = 20000;

    obs::Counter counter("test.obs.part_counter");
    obs::Histogram histo("test.obs.part_histo");
    std::atomic<bool> writers_done{false};

    std::vector<std::thread> writers;
    for (unsigned w = 0; w < kWriters; ++w) {
        writers.emplace_back([&, w] {
            for (uint64_t i = 0; i < kPerWriter; ++i) {
                counter.add(1);
                histo.record(w * kPerWriter + i);
            }
        });
    }

    uint64_t counter_delta_sum = 0;
    uint64_t histo_count_sum = 0;
    uint64_t histo_value_sum = 0;
    uint64_t last_sequence = 0;
    uint64_t last_end_ns = 0;
    auto fold = [&](const obs::StatsSnapshot &snap) {
        if (last_sequence != 0) {
            EXPECT_EQ(snap.sequence, last_sequence + 1);
            EXPECT_EQ(snap.windowStartNs, last_end_ns);
        }
        last_sequence = snap.sequence;
        last_end_ns = snap.windowEndNs;
        const auto c = snap.counters.find("test.obs.part_counter");
        if (c != snap.counters.end()) {
            counter_delta_sum += c->second.delta;
            // Mid-traffic the delta view may trail the live total but
            // never exceeds it.
            EXPECT_LE(c->second.cumulative, kWriters * kPerWriter);
        }
        const auto h = snap.histograms.find("test.obs.part_histo");
        if (h != snap.histograms.end()) {
            histo_count_sum += h->second.delta.count;
            histo_value_sum += h->second.delta.sum;
        }
    };

    std::thread rotator([&] {
        while (!writers_done.load(std::memory_order_acquire))
            fold(obs::snapshotDelta());
    });

    for (auto &t : writers)
        t.join();
    writers_done.store(true, std::memory_order_release);
    rotator.join();

    // Close the final window at quiescence; now the telescope must be
    // exact.
    const obs::StatsSnapshot last = obs::snapshotDelta();
    fold(last);
    EXPECT_EQ(counter_delta_sum, kWriters * kPerWriter);
    EXPECT_EQ(last.counters.at("test.obs.part_counter").cumulative,
              kWriters * kPerWriter);
    EXPECT_EQ(histo_count_sum, kWriters * kPerWriter);
    uint64_t expected_sum = 0;
    for (unsigned w = 0; w < kWriters; ++w) {
        for (uint64_t i = 0; i < kPerWriter; ++i)
            expected_sum += w * kPerWriter + i;
    }
    EXPECT_EQ(histo_value_sum, expected_sum);
    EXPECT_EQ(last.histograms.at("test.obs.part_histo").cumulative.sum,
              expected_sum);
}

TEST_F(ObsTest, SpanBufferStatsReportOccupancy)
{
    SKIP_IF_OBS_DISABLED();
    {
        obs::Span a("occ-a");
        obs::Span b("occ-b");
    }
    {
        obs::Span c("occ-c");
    }
    const obs::SpanBufferStats stats = obs::spanBufferStats();
    EXPECT_EQ(stats.dropped, 0u);
    EXPECT_EQ(stats.capPerThread, obs::kMaxBufferedSpansPerThread);
    ASSERT_FALSE(stats.perThread.empty());
    uint64_t buffered = 0;
    uint32_t last_tid = 0;
    for (size_t i = 0; i < stats.perThread.size(); ++i) {
        const obs::SpanBufferInfo &info = stats.perThread[i];
        if (i > 0) {
            EXPECT_GT(info.threadId, last_tid);
        }
        last_tid = info.threadId;
        EXPECT_LE(info.buffered, info.highWater);
        EXPECT_LE(info.highWater, stats.capPerThread);
        buffered += info.buffered;
    }
    EXPECT_EQ(buffered, 3u);

    // A drain empties the buffers but the high-water marks persist
    // until resetAll.
    (void)obs::drainSpans();
    const obs::SpanBufferStats after = obs::spanBufferStats();
    uint64_t after_buffered = 0;
    uint64_t high_water = 0;
    for (const obs::SpanBufferInfo &info : after.perThread) {
        after_buffered += info.buffered;
        high_water = std::max(high_water, info.highWater);
    }
    EXPECT_EQ(after_buffered, 0u);
    EXPECT_GE(high_water, 2u);
}

TEST_F(ObsTest, ScopedTraceIdNestsAndTagsSpans)
{
    SKIP_IF_OBS_DISABLED();
    EXPECT_EQ(obs::currentTraceId(), 0u);
    {
        obs::ScopedTraceId outer(7);
        EXPECT_EQ(obs::currentTraceId(), 7u);
        {
            obs::Span span("traced");
        }
        {
            obs::ScopedTraceId inner(9);
            EXPECT_EQ(obs::currentTraceId(), 9u);
        }
        // Restored, not cleared, on nested destruction.
        EXPECT_EQ(obs::currentTraceId(), 7u);
    }
    EXPECT_EQ(obs::currentTraceId(), 0u);
    {
        obs::Span span("untraced");
    }

    const std::vector<obs::SpanEvent> spans = obs::drainSpans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_STREQ(spans[0].name, "traced");
    EXPECT_EQ(spans[0].traceId, 7u);
    EXPECT_STREQ(spans[1].name, "untraced");
    EXPECT_EQ(spans[1].traceId, 0u);
}

TEST(ObsExposition, PromMetricNameMapsInvalidCharacters)
{
    EXPECT_EQ(obs::promMetricName("service.request_latency_ns"),
              "unizk_service_request_latency_ns");
    EXPECT_EQ(obs::promMetricName("obs.spans-dropped"),
              "unizk_obs_spans_dropped");
}

TEST(ObsExposition, RendererEmitsValidFamilies)
{
    std::map<std::string, uint64_t> counters;
    counters["service.requests_completed"] = 42;

    obs::HistogramData histo;
    histo.count = 12;
    histo.sum = 24000;
    histo.min = 1;
    histo.max = 2000;
    histo.buckets[1] = 3;  // [1, 1]
    histo.buckets[11] = 9; // [1024, 2047]
    std::map<std::string, obs::HistogramData> histograms;
    histograms["service.request_latency_ns"] = histo;

    const std::string text =
        obs::renderExposition(counters, histograms);

    for (const char *needle :
         {"# HELP unizk_service_requests_completed_total ",
          "# TYPE unizk_service_requests_completed_total counter",
          "unizk_service_requests_completed_total 42",
          "# TYPE unizk_service_request_latency_ns histogram",
          // Bucket edges are the inclusive log2 upper bounds; counts
          // are cumulative (3 through the empty middle buckets, then
          // 3 + 9).
          "unizk_service_request_latency_ns_bucket{le=\"1\"} 3",
          "unizk_service_request_latency_ns_bucket{le=\"511\"} 3",
          "unizk_service_request_latency_ns_bucket{le=\"2047\"} 12",
          "unizk_service_request_latency_ns_bucket{le=\"+Inf\"} 12",
          "unizk_service_request_latency_ns_sum 24000",
          "unizk_service_request_latency_ns_count 12"}) {
        EXPECT_NE(text.find(needle), std::string::npos)
            << "missing " << needle << " in:\n"
            << text;
    }
    // The bucket list is truncated after the highest populated bucket
    // (the +Inf closer covers the rest), not padded to all 65 edges.
    EXPECT_EQ(text.find("le=\"4095\""), std::string::npos) << text;
}

TEST_F(ObsTest, SnapshotJsonWindowSchema)
{
    SKIP_IF_OBS_DISABLED();
    UNIZK_COUNTER_ADD("test.obs.json_window", 4);
    UNIZK_OBS_HISTO("test.obs.json_histo", 64);
    const obs::StatsSnapshot snap = obs::snapshotDelta();
    const std::string json = obs::snapshotToJson(snap);
    // One window = one compact JSONL line, so the needles carry no
    // pretty-printing whitespace.
    for (const char *needle :
         {"\"schema\":\"unizk-stats-v3\"", "\"sequence\":1",
          "\"windowStartNs\":", "\"windowEndNs\":", "\"counters\":",
          "\"test.obs.json_window\":", "\"delta\":4",
          "\"cumulative\":4", "\"histograms\":",
          "\"test.obs.json_histo\":", "\"spanBuffers\":",
          "\"dropped\":0"}) {
        EXPECT_NE(json.find(needle), std::string::npos)
            << "missing " << needle << " in:\n"
            << json;
    }
}

TEST(Histogram, QuantileEstimates)
{
    obs::HistogramData empty;
    EXPECT_EQ(obs::histogramQuantile(empty, 0.5), 0.0);

    // 100 samples of the value 0: every quantile is 0.
    obs::HistogramData zeros;
    zeros.count = 100;
    zeros.buckets[0] = 100;
    EXPECT_EQ(obs::histogramQuantile(zeros, 0.99), 0.0);

    // 90 samples in [256, 512), 10 in [4096, 8192): the p50 lands in
    // the low bucket, the p99 in the high one. Log2 buckets bound the
    // estimate to within 2x of the true value.
    obs::HistogramData mixed;
    mixed.count = 100;
    mixed.min = 300;
    mixed.max = 5000;
    mixed.buckets[9] = 90;  // bit-width 9: [256, 511]
    mixed.buckets[13] = 10; // bit-width 13: [4096, 8191]
    const double p50 = obs::histogramQuantile(mixed, 0.5);
    EXPECT_GE(p50, 300.0);
    EXPECT_LT(p50, 512.0);
    const double p99 = obs::histogramQuantile(mixed, 0.99);
    EXPECT_GE(p99, 4096.0);
    EXPECT_LE(p99, 5000.0);
}

TEST(Histogram, QuantileStaysInsideBucketSpan)
{
    // One sample of the value 1000 (bucket 10 spans [512, 1023]). With
    // one sample, rank - seen == in_bucket, so frac == 1.0: the old
    // interpolation returned the *exclusive* edge 1024, a value the
    // bucket cannot contain. The inclusive span tops out at 1023, and
    // the [min, max] clamp then pins the estimate to the exact sample.
    obs::HistogramData one;
    one.count = 1;
    one.min = 1000;
    one.max = 1000;
    one.buckets[10] = 1;
    for (const double q : {0.0, 0.5, 0.99, 1.0})
        EXPECT_EQ(obs::histogramQuantile(one, q), 1000.0);
}

TEST(Histogram, QuantileClampedToRecordedRange)
{
    // 4 samples, all of value 700, in bucket 10 ([512, 1023]). Any
    // interpolated estimate above 700 would exceed the true maximum --
    // exactly the reported-p99-above-max bug -- and frac == 0.25 would
    // put the raw p25 estimate below min without the low clamp.
    obs::HistogramData flat;
    flat.count = 4;
    flat.min = 700;
    flat.max = 700;
    flat.buckets[10] = 4;
    for (const double q : {0.25, 0.5, 0.75, 0.99, 1.0}) {
        const double est = obs::histogramQuantile(flat, q);
        EXPECT_GE(est, 700.0) << "q=" << q;
        EXPECT_LE(est, 700.0) << "q=" << q;
    }

    // Bucket-0 (value 0) samples alongside a nonzero min cannot happen
    // in practice, but the max-fallthrough exit must clamp too: a rank
    // past every bucket returns data.max.
    obs::HistogramData spread;
    spread.count = 10;
    spread.min = 600;
    spread.max = 900;
    spread.buckets[10] = 10;
    const double p100 = obs::histogramQuantile(spread, 1.0);
    EXPECT_GE(p100, 600.0);
    EXPECT_LE(p100, 900.0);
}

} // namespace
} // namespace unizk
