/**
 * @file
 * Per-layer attribution of recorded obs spans for the benchmark.
 *
 * A *caller stack* is a per-thread span tree whose depth-0 span has one
 * of the given root names: the benchmark's own "perfbench/prove" span
 * around a prove call, or the service's "service/request" span on a
 * prover lane. Self time (duration minus the direct children's
 * durations) is summed per span name over every caller stack, so the
 * self times of one stack add up to its root's duration.
 *
 * Pool-worker spans have no parent request. They are counted by time
 * window instead: a span on a thread that holds no caller stack counts
 * when it lies inside [windowStartNs, windowEndNs], which is exact
 * while only one request runs at a time.
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/obs.h"

namespace perfbench {

struct Attribution
{
    /** Self time per span name over all caller stacks (ns). */
    std::map<std::string, uint64_t> selfNs;
    /** Summed duration of the caller-stack roots (ns). */
    uint64_t rootNs = 0;
    uint64_t roots = 0;
    /** Summed duration of in-window pool-worker spans (ns). */
    uint64_t workerNs = 0;
    /** Spans that do not nest inside their parent. */
    uint64_t violations = 0;
};

Attribution attributeSpans(std::vector<unizk::obs::SpanEvent> spans,
                           const std::set<std::string> &root_names,
                           uint64_t window_start_ns,
                           uint64_t window_end_ns);

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
