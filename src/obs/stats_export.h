/**
 * @file
 * Stable machine-readable stats schema ("unizk-stats-v2"): per run, the
 * CPU kernel-time breakdown (Table 1), the full simulator report with
 * per-class cycles / bus vs useful bytes / requests (Tables 3-4), the
 * hardware counters (per-VSA busy/stall/idle, DRAM row-buffer and
 * per-bank traffic, scratchpad pressure) with the occupancy timeline,
 * proof size, and the merged obs counters and histograms. v1 documents
 * (no hwCounters / timeline / histograms) remain valid per the
 * validator; the emitters write v2.
 */

#ifndef UNIZK_OBS_STATS_EXPORT_H
#define UNIZK_OBS_STATS_EXPORT_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "sim/simulator.h"
#include "trace/kernel_class.h"

namespace unizk {
namespace obs {

/** Everything the stats exporter records about one app run. */
struct RunStats
{
    std::string app;
    std::string protocol; ///< "plonky2" or "starky"
    size_t rows = 0;
    size_t repetitions = 0;
    unsigned threads = 1;
    double cpuSeconds = 0.0;
    KernelTimeBreakdown cpuBreakdown;
    SimReport sim;
    size_t proofBytes = 0;
    bool verified = false;
};

/**
 * Render runs (plus counter and histogram snapshots) as a
 * "unizk-stats-v2" JSON document. Also embeds the span-buffer
 * occupancy/drop accounting (obs::spanBufferStats) under
 * "spanBuffers". The schema is validated by
 * tools/obs/validate_obs_json.py; update both together.
 */
std::string
statsToJson(const std::vector<RunStats> &runs,
            const std::map<std::string, uint64_t> &counters,
            const std::map<std::string, HistogramData> &histograms = {});

/**
 * Render one window rotation (obs::snapshotDelta) as a single-line
 * compact "unizk-stats-v3" JSON record, suitable for appending to a
 * JSONL stream (unizkd --stats-windows). Carries the window identity
 * (sequence, start/end), per-name {delta, cumulative} for counters
 * and histograms, and the span-buffer stats captured at rotation.
 * Validated by tools/obs/validate_obs_json.py --kind windows.
 */
std::string snapshotToJson(const StatsSnapshot &snap);

} // namespace obs
} // namespace unizk

#endif // UNIZK_OBS_STATS_EXPORT_H
