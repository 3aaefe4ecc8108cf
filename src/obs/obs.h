/**
 * @file
 * Observability core: RAII span tracer with per-thread lock-free
 * buffers (safe inside parallelFor workers), a named-counter registry
 * with per-thread accumulator blocks, and log2-bucket histograms for
 * duration / size distributions.
 *
 * Design goals (see DESIGN.md section 6.4):
 *  - Near-zero overhead when disabled: the runtime switch
 *    (setEnabled) is the only off switch, and while it is off every
 *    span / counter hit is one relaxed atomic load and an early return.
 *  - No effect on proof bytes: instrumentation only reads the clock
 *    and appends to thread-local buffers; determinism tests cover
 *    byte-identical proofs with tracing on and off.
 *  - Collection is lock-free on the hot path: each thread owns a span
 *    buffer and a counter block, registered once under a mutex and
 *    appended to without synchronization. Snapshots (drainSpans /
 *    counterSnapshot) must only run at quiescent points -- after all
 *    parallel regions have joined, which the thread pool's completion
 *    handshake already sequences.
 */

#ifndef UNIZK_OBS_OBS_H
#define UNIZK_OBS_OBS_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace unizk {
namespace obs {

/** One closed span, timestamped in nanoseconds since the obs epoch. */
struct SpanEvent
{
    const char *name = nullptr; ///< static string (never freed)
    /**
     * Name of the innermost span open on the same thread when this one
     * started (nullptr for roots). Together with depth this lets
     * exporters rebuild the full per-thread call stack.
     */
    const char *parent = nullptr;
    uint64_t startNs = 0;
    uint64_t endNs = 0;
    uint32_t threadId = 0; ///< small stable per-thread id
    uint32_t depth = 0;    ///< nesting depth on the owning thread
    /** Request trace id active on the thread when the span opened
     *  (see ScopedTraceId); 0 = untraced. */
    uint64_t traceId = 0;
};

/**
 * Master switch for spans and counters. When off (the default) every
 * instrumentation hit is a single relaxed atomic load and an early
 * return. Enabling resets nothing; pair with resetAll() for a clean
 * capture window.
 */
void setEnabled(bool enabled);
bool enabled();

/** Nanoseconds since the current obs epoch (monotonic clock). */
uint64_t nowNs();

/**
 * Move all recorded spans out of the per-thread buffers, sorted by
 * (threadId, startNs). Must only be called at a quiescent point.
 */
std::vector<SpanEvent> drainSpans();

/** Merged name -> value view of every registered counter. */
std::map<std::string, uint64_t> counterSnapshot();

/** Number of log2 buckets: bucket i counts values of bit-width i
 *  (bucket 0 holds the value 0, bucket i >= 1 the range
 *  [2^(i-1), 2^i - 1]). */
constexpr size_t kHistogramBuckets = 65;

/** Merged view of one named histogram. */
struct HistogramData
{
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t min = 0; ///< 0 when count == 0
    uint64_t max = 0;
    std::array<uint64_t, kHistogramBuckets> buckets{};
};

/**
 * Merged name -> data view of every registered histogram. Like
 * counterSnapshot(), safe to call concurrently with recording; exact
 * only at quiescent points.
 */
std::map<std::string, HistogramData> histogramSnapshot();

/**
 * Approximate @p q quantile (0 <= q <= 1) of a log2-bucket histogram,
 * by linear interpolation inside the bucket holding the quantile rank.
 * With power-of-two buckets the estimate is within 2x of the true
 * value, which is the right fidelity for p50/p99 service-latency
 * reporting. Returns 0 when the histogram is empty.
 */
double histogramQuantile(const HistogramData &data, double q);

/**
 * Cap on spans buffered per thread between drains. Long-running
 * processes (the unizkd service) record spans indefinitely without a
 * quiescent point to drain at; once a thread's buffer is full further
 * spans are counted in "obs.spans_dropped" instead of buffered, so
 * memory stays bounded while histograms and counters keep recording.
 */
constexpr size_t kMaxBufferedSpansPerThread = size_t{1} << 20;

/** Inclusive value range [lo, hi] of log2 bucket @p i (bucket 0 holds
 *  exactly the value 0; bucket 64's hi saturates at UINT64_MAX). */
std::pair<uint64_t, uint64_t> bucketRange(size_t i);

/** One counter as seen by a snapshot window. */
struct CounterWindow
{
    uint64_t delta = 0;      ///< increase during this window
    uint64_t cumulative = 0; ///< monotonic total at window end
};

/** One histogram as seen by a snapshot window. The delta's min/max are
 *  the extremes recorded during the window (best effort mid-traffic,
 *  exact at quiescent points); the cumulative side matches
 *  histogramSnapshot(). */
struct HistogramWindow
{
    HistogramData delta;
    HistogramData cumulative;
};

/** Occupancy of one thread's span buffer. */
struct SpanBufferInfo
{
    uint32_t threadId = 0;
    uint64_t buffered = 0;  ///< spans currently held (0 after a drain)
    uint64_t highWater = 0; ///< peak occupancy since the last resetAll
};

/** Drop accounting and per-thread occupancy of the span buffers. Safe
 *  to call while spans are being recorded (reads mirrored atomics,
 *  never the buffers themselves). */
struct SpanBufferStats
{
    uint64_t dropped = 0; ///< spans lost to full buffers (lifetime)
    uint64_t capPerThread = kMaxBufferedSpansPerThread;
    std::vector<SpanBufferInfo> perThread; ///< sorted by threadId
};

SpanBufferStats spanBufferStats();

/**
 * One rotation of the stats window: everything that changed since the
 * previous snapshotDelta() call, alongside the cumulative totals.
 * Sequence numbers are monotonic and window intervals chain
 * (windowStartNs of rotation N+1 == windowEndNs of rotation N), so a
 * series of snapshots partitions the cumulative totals exactly: at any
 * quiescent point, the sum of all deltas ever returned equals the
 * cumulative value (pinned by the TSAN-leg stress test).
 */
struct StatsSnapshot
{
    uint64_t sequence = 0; ///< 1 for the first rotation after reset
    uint64_t windowStartNs = 0;
    uint64_t windowEndNs = 0;
    std::map<std::string, CounterWindow> counters;
    std::map<std::string, HistogramWindow> histograms;
    SpanBufferStats spans;
};

/**
 * Atomically rotate the stats window and return its contents. There is
 * one process-wide rotation stream: concurrent callers (a periodic
 * exporter and GetStats pollers, say) each receive disjoint windows
 * that together still partition the cumulative totals. Recording
 * threads are never blocked; like the plain snapshots, a window taken
 * mid-traffic may split an in-flight record's fields across two
 * windows, which the "exact only at quiescence" contract covers.
 */
StatsSnapshot snapshotDelta();

/** Clear spans, counters and histograms (including drop accounting
 *  and window-rotation baselines); restart the epoch clock. */
void resetAll();

/**
 * Mark the warmup -> measured boundary: discard everything recorded so
 * far (spans, counters, histograms -- including the cumulative and
 * per-window min/max watermarks, so a warmup outlier cannot survive
 * into the measured window's quantile clamp) and restart the window
 * rotation stream. No-op when obs is disabled. Like drainSpans(), call
 * only at a quiescent point.
 */
void resetForMeasurement();

/**
 * Request trace id tagged onto spans opened on this thread. Defined in
 * the header (with ScopedTraceId and currentTraceId) so the thread pool
 * in src/common can hand a submitter's id to its workers without
 * linking this library.
 */
inline thread_local uint64_t tl_trace_id = 0;

/**
 * Tag spans opened on this thread with a request trace id for the
 * lifetime of the scope (restores the previous id on destruction, so
 * nesting works). The id is recorded into SpanEvent::traceId and
 * surfaces in the Chrome-trace export; 0 means untraced. Pool workers
 * run each parallelFor chunk under its submitter's id.
 */
class ScopedTraceId
{
  public:
    explicit ScopedTraceId(uint64_t id) : prev_(tl_trace_id)
    {
        tl_trace_id = id;
    }
    ~ScopedTraceId() { tl_trace_id = prev_; }

    ScopedTraceId(const ScopedTraceId &) = delete;
    ScopedTraceId &operator=(const ScopedTraceId &) = delete;

  private:
    uint64_t prev_;
};

/** Trace id currently active on the calling thread (0 = none). */
inline uint64_t
currentTraceId()
{
    return tl_trace_id;
}

/**
 * RAII span. Construct via the UNIZK_SPAN macro with a static string;
 * the constructor samples the clock only when tracing is enabled, and
 * the destructor appends one SpanEvent to the calling thread's buffer.
 *
 * Open spans form a per-thread stack: the constructor pushes, the
 * destructor pops (including during exception unwinding, since spans
 * are scoped), so every recorded event carries its parent's name and
 * its depth on the stack. Closing also feeds the built-in
 * "obs.span_duration_ns" histogram.
 */
class Span
{
  public:
    explicit Span(const char *name);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    const char *name_ = nullptr; ///< nullptr when tracing was disabled
    const char *parent_ = nullptr;
    uint64_t start_ns_ = 0;
    uint32_t depth_ = 0;
};

/**
 * Handle to one named counter. Registration (the constructor) takes a
 * mutex; add() is a relaxed fetch_add on the calling thread's block.
 * Intended use is one function-local static per call site (see
 * UNIZK_COUNTER_ADD).
 */
class Counter
{
  public:
    explicit Counter(const char *name);

    void add(uint64_t delta);

  private:
    size_t id_;
};

/**
 * Handle to one named log2-bucket histogram. Registration takes a
 * mutex; record() touches only the calling thread's block (relaxed
 * atomics), so it is safe inside parallelFor workers. Intended use is
 * one function-local static per call site (see UNIZK_OBS_HISTO).
 */
class Histogram
{
  public:
    explicit Histogram(const char *name);

    void record(uint64_t value);

  private:
    size_t id_;
};

} // namespace obs
} // namespace unizk

#define UNIZK_OBS_CONCAT2(a, b) a##b
#define UNIZK_OBS_CONCAT(a, b) UNIZK_OBS_CONCAT2(a, b)

/** Open a span covering the rest of the enclosing scope. */
#define UNIZK_SPAN(name)                                                  \
    const ::unizk::obs::Span UNIZK_OBS_CONCAT(unizk_obs_span_,            \
                                              __LINE__)(name)

/** Bump the named counter by @p delta (no-op while obs is disabled). */
#define UNIZK_COUNTER_ADD(name, delta)                                    \
    do {                                                                  \
        static ::unizk::obs::Counter UNIZK_OBS_CONCAT(unizk_obs_ctr_,     \
                                                      __LINE__)(name);    \
        UNIZK_OBS_CONCAT(unizk_obs_ctr_, __LINE__)                        \
            .add(static_cast<uint64_t>(delta));                           \
    } while (false)

/** Record @p value into the named log2-bucket histogram. */
#define UNIZK_OBS_HISTO(name, value)                                      \
    do {                                                                  \
        static ::unizk::obs::Histogram UNIZK_OBS_CONCAT(                  \
            unizk_obs_histo_, __LINE__)(name);                            \
        UNIZK_OBS_CONCAT(unizk_obs_histo_, __LINE__)                      \
            .record(static_cast<uint64_t>(value));                        \
    } while (false)

#endif // UNIZK_OBS_OBS_H
