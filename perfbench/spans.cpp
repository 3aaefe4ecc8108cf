#include "spans.h"

#include <algorithm>

namespace perfbench {

Attribution
attributeSpans(std::vector<unizk::obs::SpanEvent> sorted,
               const std::set<std::string> &root_names,
               uint64_t window_start_ns, uint64_t window_end_ns)
{
    using unizk::obs::SpanEvent;
    // Parents start no later than their children and sit at a smaller
    // depth, so this order visits every ancestor before its children.
    std::sort(sorted.begin(), sorted.end(),
              [](const SpanEvent &a, const SpanEvent &b) {
                  if (a.threadId != b.threadId)
                      return a.threadId < b.threadId;
                  if (a.startNs != b.startNs)
                      return a.startNs < b.startNs;
                  return a.depth < b.depth;
              });

    std::set<uint32_t> caller_threads;
    for (const SpanEvent &e : sorted) {
        if (e.depth == 0 && root_names.count(e.name))
            caller_threads.insert(e.threadId);
    }

    Attribution out;
    std::vector<size_t> stack; // index of the open span per depth
    std::vector<int64_t> self(sorted.size(), 0);
    std::vector<bool> in_caller_stack(sorted.size(), false);
    for (size_t i = 0; i < sorted.size(); ++i) {
        const SpanEvent &e = sorted[i];
        if (e.endNs < e.startNs) {
            ++out.violations;
            continue;
        }
        const uint64_t dur = e.endNs - e.startNs;
        if (!caller_threads.count(e.threadId)) {
            if (e.startNs >= window_start_ns && e.endNs <= window_end_ns)
                out.workerNs += dur;
            continue;
        }
        if (i == 0 || e.threadId != sorted[i - 1].threadId)
            stack.clear();
        stack.resize(std::min<size_t>(e.depth, stack.size()));
        self[i] = static_cast<int64_t>(dur);
        if (e.depth == 0) {
            in_caller_stack[i] = root_names.count(e.name) > 0;
            if (in_caller_stack[i]) {
                out.rootNs += dur;
                ++out.roots;
            }
        } else if (stack.size() == e.depth) {
            const size_t parent = stack.back();
            const SpanEvent &p = sorted[parent];
            if (e.startNs < p.startNs || e.endNs > p.endNs)
                ++out.violations;
            self[parent] -= static_cast<int64_t>(dur);
            in_caller_stack[i] = in_caller_stack[stack.front()];
        } else {
            // A parent closed before the drain window opened.
            ++out.violations;
            continue;
        }
        stack.push_back(i);
    }
    for (size_t i = 0; i < sorted.size(); ++i) {
        if (!in_caller_stack[i])
            continue;
        if (self[i] < 0) {
            ++out.violations;
            continue;
        }
        out.selfNs[sorted[i].name] += static_cast<uint64_t>(self[i]);
    }
    return out;
}

} // namespace perfbench
