#include "obs/obs.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <memory>

#include "common/logging.h"
#include "common/sync.h"
#include "obs/registry.h"

namespace unizk {
namespace obs {

namespace {

using internal::CounterBlock;
using internal::HistoBlock;
using internal::HistoSlot;
using internal::Registry;
using internal::SpanBuffer;

/**
 * Relaxed ordering is sufficient for the master switch: the flag gates
 * *whether* instrumentation records, but no data is prepared before
 * the store that readers must observe afterwards (counter blocks and
 * span buffers are registered under the registry mutex, which provides
 * the publication edge). A thread seeing the flip late merely skips or
 * records a few extra events. Pinned by the TSAN-leg test
 * ObsConcurrency.RelaxedAtomicsSafeUnderConcurrentExport.
 */
std::atomic<bool> g_enabled{false};

thread_local SpanBuffer *tl_span_buffer = nullptr;
thread_local CounterBlock *tl_counter_block = nullptr;
thread_local HistoBlock *tl_histo_block = nullptr;
/** Names of the spans currently open on this thread, outermost first. */
thread_local std::vector<const char *> tl_span_stack;

SpanBuffer &
threadSpanBuffer()
{
    if (tl_span_buffer == nullptr) {
        Registry &reg = Registry::instance();
        auto buf = std::make_unique<SpanBuffer>();
        buf->threadId =
            reg.nextThreadId.fetch_add(1, std::memory_order_relaxed);
        MutexLock lock(reg.mutex);
        tl_span_buffer = buf.get();
        reg.spanBuffers.push_back(std::move(buf));
    }
    return *tl_span_buffer;
}

CounterBlock &
threadCounterBlock()
{
    if (tl_counter_block == nullptr) {
        Registry &reg = Registry::instance();
        auto block = std::make_unique<CounterBlock>();
        MutexLock lock(reg.mutex);
        tl_counter_block = block.get();
        reg.counterBlocks.push_back(std::move(block));
    }
    return *tl_counter_block;
}

HistoBlock &
threadHistoBlock()
{
    if (tl_histo_block == nullptr) {
        Registry &reg = Registry::instance();
        auto block = std::make_unique<HistoBlock>();
        MutexLock lock(reg.mutex);
        tl_histo_block = block.get();
        reg.histoBlocks.push_back(std::move(block));
    }
    return *tl_histo_block;
}

/** log2 bucket of @p value: 0 for 0, else the value's bit width. */
size_t
bucketIndex(uint64_t value)
{
    size_t width = 0;
    while (value != 0) {
        ++width;
        value >>= 1;
    }
    return width;
}

/**
 * Relaxed atomic min/max updates. Each slot is written by its owning
 * thread only, so the CAS loop is uncontended and cannot livelock;
 * cross-thread readers (histogramSnapshot) tolerate a stale value by
 * contract. No release edge is needed because min/max are plain
 * values, not pointers to data that the reader dereferences.
 */
void
storeMin(std::atomic<uint64_t> &slot, uint64_t value)
{
    uint64_t cur = slot.load(std::memory_order_relaxed);
    while (value < cur &&
           !slot.compare_exchange_weak(cur, value,
                                       std::memory_order_relaxed)) {
    }
}

void
storeMax(std::atomic<uint64_t> &slot, uint64_t value)
{
    uint64_t cur = slot.load(std::memory_order_relaxed);
    while (value > cur &&
           !slot.compare_exchange_weak(cur, value,
                                       std::memory_order_relaxed)) {
    }
}

/** a - b, clamped at 0: a resetAll() between rotations can shrink the
 *  cumulative totals below a stale baseline; never underflow. */
uint64_t
monotonicDelta(uint64_t a, uint64_t b)
{
    return a >= b ? a - b : 0;
}

SpanBufferStats
spanBufferStatsLocked(Registry &reg) UNIZK_REQUIRES(reg.mutex)
{
    SpanBufferStats out;
    out.dropped = reg.spansDropped.load(std::memory_order_relaxed);
    for (const auto &buf : reg.spanBuffers) {
        SpanBufferInfo info;
        info.threadId = buf->threadId;
        info.buffered = buf->buffered.load(std::memory_order_relaxed);
        info.highWater =
            buf->highWater.load(std::memory_order_relaxed);
        out.perThread.push_back(info);
    }
    std::sort(out.perThread.begin(), out.perThread.end(),
              [](const SpanBufferInfo &a, const SpanBufferInfo &b) {
                  return a.threadId < b.threadId;
              });
    return out;
}

} // namespace

void
setEnabled(bool enabled_flag)
{
    g_enabled.store(enabled_flag, std::memory_order_relaxed);
}

bool
enabled()
{
    return g_enabled.load(std::memory_order_relaxed);
}

uint64_t
nowNs()
{
    const auto elapsed =
        std::chrono::steady_clock::now() - Registry::instance().epoch;
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count());
}

std::vector<SpanEvent>
drainSpans()
{
    Registry &reg = Registry::instance();
    std::vector<SpanEvent> out;
    MutexLock lock(reg.mutex);
    for (auto &buf : reg.spanBuffers) {
        out.insert(out.end(), buf->events.begin(), buf->events.end());
        buf->events.clear();
        buf->buffered.store(0, std::memory_order_relaxed);
    }
    std::sort(out.begin(), out.end(),
              [](const SpanEvent &a, const SpanEvent &b) {
                  if (a.threadId != b.threadId)
                      return a.threadId < b.threadId;
                  return a.startNs < b.startNs;
              });
    return out;
}

SpanBufferStats
spanBufferStats()
{
    Registry &reg = Registry::instance();
    MutexLock lock(reg.mutex);
    return spanBufferStatsLocked(reg);
}

std::map<std::string, uint64_t>
counterSnapshot()
{
    Registry &reg = Registry::instance();
    std::map<std::string, uint64_t> out;
    MutexLock lock(reg.mutex);
    for (size_t i = 0; i < reg.counterNames.size(); ++i) {
        uint64_t total = 0;
        for (const auto &block : reg.counterBlocks)
            total += block->values[i].load(std::memory_order_relaxed);
        out[reg.counterNames[i]] = total;
    }
    return out;
}

std::map<std::string, HistogramData>
histogramSnapshot()
{
    Registry &reg = Registry::instance();
    std::map<std::string, HistogramData> out;
    MutexLock lock(reg.mutex);
    // Bucket/count/sum/min/max are independent relaxed atomics written
    // by their owning threads; a snapshot taken mid-record may observe
    // e.g. a bucket increment whose matching sum update is not yet
    // visible. That cross-field skew is bounded by the in-flight
    // records and is the documented contract ("exact only at quiescent
    // points") -- no acquire ordering would remove it without making
    // every record a release-write, so the hot path stays relaxed.
    for (size_t i = 0; i < reg.histogramNames.size(); ++i) {
        HistogramData data;
        uint64_t min_seen = UINT64_MAX;
        for (const auto &block : reg.histoBlocks) {
            const HistoSlot &slot = block->slots[i];
            data.count += slot.count.load(std::memory_order_relaxed);
            data.sum += slot.sum.load(std::memory_order_relaxed);
            min_seen = std::min(
                min_seen, slot.min.load(std::memory_order_relaxed));
            data.max = std::max(
                data.max, slot.max.load(std::memory_order_relaxed));
            for (size_t b = 0; b < kHistogramBuckets; ++b) {
                data.buckets[b] +=
                    slot.buckets[b].load(std::memory_order_relaxed);
            }
        }
        data.min = data.count == 0 ? 0 : min_seen;
        out[reg.histogramNames[i]] = data;
    }
    return out;
}

StatsSnapshot
snapshotDelta()
{
    Registry &reg = Registry::instance();
    StatsSnapshot snap;
    MutexLock lock(reg.mutex);
    snap.windowEndNs = nowNs();
    snap.windowStartNs = reg.windowStartNs;
    snap.sequence = ++reg.snapshotSequence;

    for (size_t i = 0; i < reg.counterNames.size(); ++i) {
        uint64_t total = 0;
        for (const auto &block : reg.counterBlocks)
            total += block->values[i].load(std::memory_order_relaxed);
        uint64_t &baseline = reg.counterBaseline[reg.counterNames[i]];
        CounterWindow window;
        window.cumulative = total;
        window.delta = monotonicDelta(total, baseline);
        baseline = total;
        snap.counters[reg.counterNames[i]] = window;
    }

    for (size_t i = 0; i < reg.histogramNames.size(); ++i) {
        HistogramData cum;
        uint64_t min_seen = UINT64_MAX;
        uint64_t window_min = UINT64_MAX;
        uint64_t window_max = 0;
        for (auto &block : reg.histoBlocks) {
            HistoSlot &slot = block->slots[i];
            cum.count += slot.count.load(std::memory_order_relaxed);
            cum.sum += slot.sum.load(std::memory_order_relaxed);
            min_seen = std::min(
                min_seen, slot.min.load(std::memory_order_relaxed));
            cum.max = std::max(
                cum.max, slot.max.load(std::memory_order_relaxed));
            for (size_t b = 0; b < kHistogramBuckets; ++b) {
                cum.buckets[b] +=
                    slot.buckets[b].load(std::memory_order_relaxed);
            }
            // Consume the per-window watermarks: the exchange both
            // reads this window's extreme and re-arms the slot for the
            // next window. A record racing the rotation lands its
            // watermark in one window or the other, never both.
            window_min = std::min(
                window_min,
                slot.windowMin.exchange(UINT64_MAX,
                                        std::memory_order_relaxed));
            window_max = std::max(
                window_max,
                slot.windowMax.exchange(0,
                                        std::memory_order_relaxed));
        }
        cum.min = cum.count == 0 ? 0 : min_seen;

        HistogramData &baseline =
            reg.histogramBaseline[reg.histogramNames[i]];
        HistogramData delta;
        delta.count = monotonicDelta(cum.count, baseline.count);
        delta.sum = monotonicDelta(cum.sum, baseline.sum);
        for (size_t b = 0; b < kHistogramBuckets; ++b) {
            delta.buckets[b] =
                monotonicDelta(cum.buckets[b], baseline.buckets[b]);
        }
        if (delta.count == 0) {
            delta.min = 0;
            delta.max = 0;
        } else if (window_min != UINT64_MAX) {
            delta.min = window_min;
            delta.max = window_max;
        } else {
            // The count moved but the watermark update is not visible
            // yet (a record in flight across the rotation): fall back
            // to the cumulative range rather than reporting 0.
            delta.min = cum.min;
            delta.max = cum.max;
        }
        baseline = cum;
        snap.histograms[reg.histogramNames[i]] =
            HistogramWindow{delta, cum};
    }

    snap.spans = spanBufferStatsLocked(reg);
    reg.windowStartNs = snap.windowEndNs;
    return snap;
}

std::pair<uint64_t, uint64_t>
bucketRange(size_t i)
{
    if (i == 0)
        return {0, 0};
    const uint64_t lo = uint64_t{1} << (i - 1);
    const uint64_t hi = i >= 64 ? UINT64_MAX : (uint64_t{1} << i) - 1;
    return {lo, hi};
}

double
histogramQuantile(const HistogramData &data, double q)
{
    if (data.count == 0)
        return 0.0;
    // Interpolated estimates can escape the range of recorded values in
    // both directions (the quantile rank may land in a bucket whose
    // span extends past data.max, or below data.min when the minimum
    // sits high inside its bucket), so every exit clamps to the ground
    // truth [data.min, data.max].
    const auto clamp = [&data](double v) {
        return std::min(std::max(v, static_cast<double>(data.min)),
                        static_cast<double>(data.max));
    };
    q = std::min(std::max(q, 0.0), 1.0);
    // Rank of the quantile among the recorded values (1-based).
    const uint64_t rank = std::max<uint64_t>(
        1, static_cast<uint64_t>(q * static_cast<double>(data.count)));
    uint64_t seen = 0;
    for (size_t i = 0; i < kHistogramBuckets; ++i) {
        const uint64_t in_bucket = data.buckets[i];
        if (in_bucket == 0)
            continue;
        if (seen + in_bucket >= rank) {
            // Bucket i spans [2^(i-1), 2^i - 1] (bucket 0 holds 0).
            if (i == 0)
                return clamp(0.0);
            const double lo = static_cast<double>(uint64_t{1} << (i - 1));
            // Interpolate across the *inclusive* span [lo, 2*lo - 1]:
            // using 2*lo as the top meant frac == 1.0 (rank at the last
            // value in the bucket) reported the next bucket's lower
            // edge, a value this bucket cannot contain.
            const double hi = lo * 2.0 - 1.0;
            const double frac = static_cast<double>(rank - seen) /
                                static_cast<double>(in_bucket);
            return clamp(lo + (hi - lo) * frac);
        }
        seen += in_bucket;
    }
    return clamp(static_cast<double>(data.max));
}

void
resetAll()
{
    Registry &reg = Registry::instance();
    MutexLock lock(reg.mutex);
    for (auto &buf : reg.spanBuffers) {
        buf->events.clear();
        buf->buffered.store(0, std::memory_order_relaxed);
        buf->highWater.store(0, std::memory_order_relaxed);
    }
    for (auto &block : reg.counterBlocks) {
        for (auto &v : block->values)
            v.store(0, std::memory_order_relaxed);
    }
    for (auto &block : reg.histoBlocks) {
        for (auto &slot : block->slots) {
            for (auto &b : slot.buckets)
                b.store(0, std::memory_order_relaxed);
            slot.count.store(0, std::memory_order_relaxed);
            slot.sum.store(0, std::memory_order_relaxed);
            // Both watermark generations: the cumulative min/max and
            // the open window's min/max. Leaving either behind lets a
            // warmup outlier survive into the measured window's
            // quantile clamp (regression-pinned in test_obs).
            slot.min.store(UINT64_MAX, std::memory_order_relaxed);
            slot.max.store(0, std::memory_order_relaxed);
            slot.windowMin.store(UINT64_MAX,
                                 std::memory_order_relaxed);
            slot.windowMax.store(0, std::memory_order_relaxed);
        }
    }
    // Restart the rotation stream: stale baselines would otherwise
    // zero out every delta until the cumulative totals caught back up
    // to their pre-reset values.
    reg.snapshotSequence = 0;
    reg.windowStartNs = 0;
    reg.counterBaseline.clear();
    reg.histogramBaseline.clear();
    reg.spansDropped.store(0, std::memory_order_relaxed);
    reg.dropWarned.store(false, std::memory_order_relaxed);
    reg.epoch = std::chrono::steady_clock::now();
}

void
resetForMeasurement()
{
    if (!enabled())
        return;
    resetAll();
}

Span::Span(const char *name)
{
    if (!g_enabled.load(std::memory_order_relaxed))
        return;
    name_ = name;
    parent_ = tl_span_stack.empty() ? nullptr : tl_span_stack.back();
    depth_ = static_cast<uint32_t>(tl_span_stack.size());
    tl_span_stack.push_back(name);
    start_ns_ = nowNs();
}

Span::~Span()
{
    if (name_ == nullptr)
        return;
    const uint64_t end_ns = nowNs();
    // Pop unconditionally: destructors run in reverse construction
    // order even during exception unwinding, so the top of the stack
    // is always this span.
    tl_span_stack.pop_back();
    SpanBuffer &buf = threadSpanBuffer();
    if (buf.events.size() < kMaxBufferedSpansPerThread) {
        buf.events.push_back({name_, parent_, start_ns_, end_ns,
                              buf.threadId, depth_, tl_trace_id});
        const uint64_t occupancy = buf.events.size();
        buf.buffered.store(occupancy, std::memory_order_relaxed);
        storeMax(buf.highWater, occupancy);
    } else {
        Registry &reg = Registry::instance();
        reg.spansDropped.fetch_add(1, std::memory_order_relaxed);
        static Counter dropped("obs.spans_dropped");
        dropped.add(1);
        if (!reg.dropWarned.exchange(true,
                                     std::memory_order_relaxed)) {
            warn("obs: span buffer full on thread ", buf.threadId,
                 " (", kMaxBufferedSpansPerThread,
                 " spans); dropping further spans -- counters and "
                 "histograms keep recording, obs.spans_dropped "
                 "counts the loss");
        }
    }
    static Histogram duration_histo("obs.span_duration_ns");
    duration_histo.record(end_ns - start_ns_);
}

Counter::Counter(const char *name) : id_(0)
{
    Registry &reg = Registry::instance();
    MutexLock lock(reg.mutex);
    for (size_t i = 0; i < reg.counterNames.size(); ++i) {
        if (reg.counterNames[i] == name) {
            id_ = i;
            return;
        }
    }
    if (reg.counterNames.size() >= internal::kMaxCounters)
        unizk_panic("obs counter registry full: ", name);
    id_ = reg.counterNames.size();
    reg.counterNames.emplace_back(name);
}

void
Counter::add(uint64_t delta)
{
    if (!g_enabled.load(std::memory_order_relaxed))
        return;
    threadCounterBlock().values[id_].fetch_add(
        delta, std::memory_order_relaxed);
}

Histogram::Histogram(const char *name) : id_(0)
{
    Registry &reg = Registry::instance();
    MutexLock lock(reg.mutex);
    for (size_t i = 0; i < reg.histogramNames.size(); ++i) {
        if (reg.histogramNames[i] == name) {
            id_ = i;
            return;
        }
    }
    if (reg.histogramNames.size() >= internal::kMaxHistograms)
        unizk_panic("obs histogram registry full: ", name);
    id_ = reg.histogramNames.size();
    reg.histogramNames.emplace_back(name);
}

void
Histogram::record(uint64_t value)
{
    if (!g_enabled.load(std::memory_order_relaxed))
        return;
    HistoSlot &slot = threadHistoBlock().slots[id_];
    slot.buckets[bucketIndex(value)].fetch_add(
        1, std::memory_order_relaxed);
    slot.count.fetch_add(1, std::memory_order_relaxed);
    slot.sum.fetch_add(value, std::memory_order_relaxed);
    storeMin(slot.min, value);
    storeMax(slot.max, value);
    storeMin(slot.windowMin, value);
    storeMax(slot.windowMax, value);
}

} // namespace obs
} // namespace unizk
