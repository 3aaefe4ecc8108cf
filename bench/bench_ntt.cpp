/**
 * @file
 * NTT engine benchmark: the twiddle-cached, pool-parallel engine against
 * the seed-era scalar path (per-call root recomputation, sequential
 * `w *= w_len` twiddle chains) across transform sizes 2^12..2^22, at one
 * thread and at the full pool width. The LDE rows are the FRI commit
 * workload (coset NTT^NR with blowup 8), sized by output domain so the
 * "2^20 LDE" row matches the acceptance criterion directly.
 *
 * The lanes rows time the same engine on one thread at the scalar SIMD
 * level and at the dispatched one (setSimdLevel), isolating what the
 * Goldilocks lane kernels add to the wide butterfly stages and scaling
 * passes; lanes_over_scalar is gated as ntt.lanes_over_scalar.
 *
 * Flags:
 *   --min-log N / --max-log N  sweep bounds on the transform size
 *                              (default 12..22)
 *   --threads N                pool width for the NT columns (default:
 *                              auto)
 *   --smoke                    tiny sweep (2^12..2^14, one reading) used
 *                              as the ctest smoke leg
 *   --stats-json PATH          write a unizk-ntt-bench-v2 JSON artifact
 *                              with every timing plus the obs counters
 *                              (measured and warmup pools kept apart);
 *                              "lanes" and "simd" carry the lane rows
 *                              and the dispatched level
 */

#include <algorithm>
#include <functional>
#include <map>

#include "bench_util.h"
#include "common/rng.h"
#include "common/stats.h"
#include "field/goldilocks_simd.h"
#include "ntt/ntt.h"

using namespace unizk;
using namespace unizk::bench;

namespace {

/** Temporarily pin the pool width (restores the previous width). */
struct ThreadCountGuard
{
    unsigned saved;

    explicit ThreadCountGuard(unsigned threads)
        : saved(globalThreadCount())
    {
        setGlobalThreadCount(threads);
    }
    ~ThreadCountGuard() { setGlobalThreadCount(saved); }
};

std::vector<Fp>
randomVector(size_t n, uint64_t seed)
{
    SplitMix64 rng(seed);
    std::vector<Fp> v(n);
    for (auto &x : v)
        x = randomFp(rng);
    return v;
}

/**
 * Warmup and measured counters are kept apart so warmup work (e.g.
 * first-touch twiddle construction, visible as `ntt.twiddle_builds`
 * under "warmupCounters") cannot bleed into the measured numbers.
 */
std::map<std::string, uint64_t> g_warmup_counters;
std::map<std::string, uint64_t> g_measured_counters;

/** Fold the live obs counters into @p into, then clear them. */
void
harvestCounters(std::map<std::string, uint64_t> &into)
{
    for (const auto &[name, count] : obs::counterSnapshot())
        into[name] += count;
    obs::resetForMeasurement();
}

/**
 * Best-of-reps wall time of fn() on a fresh copy of @p input, after one
 * untimed warmup that absorbs first-touch twiddle construction. The obs
 * counters are harvested at the warmup/measured boundary so each pool
 * only contains its own work.
 */
double
timeTransform(const std::vector<Fp> &input, unsigned reps,
              const std::function<void(std::vector<Fp> &)> &fn)
{
    {
        auto warm = input;
        fn(warm);
    }
    harvestCounters(g_warmup_counters);
    double best = 0;
    for (unsigned r = 0; r < reps; ++r) {
        auto work = input;
        const Stopwatch watch;
        fn(work);
        const double s = watch.elapsedSeconds();
        if (r == 0 || s < best)
            best = s;
    }
    harvestCounters(g_measured_counters);
    return best;
}

struct Row
{
    std::string kernel;
    uint32_t logSize = 0;
    unsigned threads = 1;
    double scalarSeconds = 0; ///< seed path (always 1 thread)
    double engine1tSeconds = 0;
    double engineNtSeconds = 0;
};

/** One thread, the same engine at the scalar and the dispatched level. */
struct LaneRow
{
    std::string kernel;
    uint32_t logSize = 0;
    double scalarLevelSeconds = 0;
    double activeLevelSeconds = 0;
};

/** Temporarily force a SIMD level (restores the previous level). */
struct SimdLevelGuard
{
    SimdLevel saved;

    explicit SimdLevelGuard(SimdLevel level) : saved(activeSimdLevel())
    {
        setSimdLevel(level);
    }
    ~SimdLevelGuard() { setSimdLevel(saved); }
};

} // namespace

int
main(int argc, char **argv)
{
    const CliOptions cli(argc, argv);
    const bool smoke = cli.has("smoke");
    const uint32_t min_log =
        static_cast<uint32_t>(cli.getUint("min-log", 12));
    const uint32_t max_log = static_cast<uint32_t>(
        cli.getUint("max-log", smoke ? 14 : 22));
    const std::string stats_path = cli.getString("stats-json", "");
    applyGlobalCliOptions(cli);
    const unsigned threads = globalThreadCount();
    constexpr uint32_t lde_blowup_bits = 3;
    constexpr uint32_t lde_blowup = 8; // FRI commit shape

    obs::setEnabled(true);
    obs::resetForMeasurement();

    std::printf("=== NTT engine vs seed scalar path (%u threads) ===\n\n",
                threads);
    printRow({"Kernel", "Size", "Seed 1T (ms)", "Engine 1T (ms)",
              "Engine NT (ms)", "1T gain", "NT gain"});

    const SimdLevel level = activeSimdLevel();
    std::vector<Row> rows;
    std::vector<LaneRow> lane_rows;
    for (uint32_t log = min_log; log <= max_log; ++log) {
        const size_t n = size_t{1} << log;
        // Keep every reading above timer noise without letting small
        // sizes dominate wall time.
        const unsigned reps =
            smoke ? 1 : std::max(2u, static_cast<unsigned>(24 - log));
        const Fp shift = defaultCosetShift();

        // Forward NTT^NR on the full domain.
        {
            const auto input = randomVector(n, log);
            Row row;
            row.kernel = "ntt-nr";
            row.logSize = log;
            row.threads = threads;
            row.scalarSeconds =
                timeTransform(input, reps, [](std::vector<Fp> &a) {
                    scalarNttNR(a);
                });
            {
                ThreadCountGuard guard(1);
                row.engine1tSeconds =
                    timeTransform(input, reps, [](std::vector<Fp> &a) {
                        nttNR(a);
                    });
            }
            row.engineNtSeconds =
                timeTransform(input, reps, [](std::vector<Fp> &a) {
                    nttNR(a);
                });
            rows.push_back(row);

            LaneRow lane;
            lane.kernel = "ntt-nr";
            lane.logSize = log;
            const ThreadCountGuard guard(1);
            lane.activeLevelSeconds = row.engine1tSeconds;
            {
                const SimdLevelGuard scalar(SimdLevel::Scalar);
                lane.scalarLevelSeconds =
                    timeTransform(input, reps, [](std::vector<Fp> &a) {
                        nttNR(a);
                    });
            }
            lane_rows.push_back(lane);
        }

        // Coset LDE with output domain 2^log (the FRI commit kernel).
        if (log > lde_blowup_bits) {
            const auto coeffs =
                randomVector(n >> lde_blowup_bits, 77 + log);
            Row row;
            row.kernel = "lde";
            row.logSize = log;
            row.threads = threads;
            row.scalarSeconds =
                timeTransform(coeffs, reps, [&](std::vector<Fp> &a) {
                    a = scalarLowDegreeExtension(
                        a, lde_blowup, shift);
                });
            {
                ThreadCountGuard guard(1);
                row.engine1tSeconds =
                    timeTransform(coeffs, reps, [&](std::vector<Fp> &a) {
                        a = lowDegreeExtension(
                            a, lde_blowup, shift);
                    });
            }
            row.engineNtSeconds =
                timeTransform(coeffs, reps, [&](std::vector<Fp> &a) {
                    a = lowDegreeExtension(a, lde_blowup,
                                           shift);
                });
            rows.push_back(row);
        }
    }

    for (const auto &r : rows) {
        printRow({r.kernel, "2^" + std::to_string(r.logSize),
                  fmt(r.scalarSeconds * 1e3, 3),
                  fmt(r.engine1tSeconds * 1e3, 3),
                  fmt(r.engineNtSeconds * 1e3, 3),
                  fmtX(r.scalarSeconds / r.engine1tSeconds),
                  fmtX(r.scalarSeconds / r.engineNtSeconds)});
    }

    std::printf("\n=== Lanes (simd=%s) vs scalar level, 1 thread ===\n\n",
                simdLevelName(level));
    printRow({"Kernel", "Size", "Scalar (ms)", "Lanes (ms)", "Gain"});
    for (const auto &r : lane_rows) {
        printRow({r.kernel, "2^" + std::to_string(r.logSize),
                  fmt(r.scalarLevelSeconds * 1e3, 3),
                  fmt(r.activeLevelSeconds * 1e3, 3),
                  fmtX(r.scalarLevelSeconds / r.activeLevelSeconds)});
    }

    if (!stats_path.empty()) {
        obs::JsonWriter w;
        w.beginObject();
        w.kv("schema", "unizk-ntt-bench-v2");
        w.kv("threads", static_cast<uint64_t>(threads));
        w.kv("smoke", smoke);
        w.kv("simd", simdLevelName(level));
        w.key("rows").beginArray();
        for (const auto &r : rows) {
            w.beginObject();
            w.kv("kernel", r.kernel);
            w.kv("log_size", static_cast<uint64_t>(r.logSize));
            w.kv("threads", static_cast<uint64_t>(r.threads));
            w.kv("seed_scalar_seconds", r.scalarSeconds);
            w.kv("engine_1t_seconds", r.engine1tSeconds);
            w.kv("engine_nt_seconds", r.engineNtSeconds);
            w.kv("speedup_1t", r.scalarSeconds / r.engine1tSeconds);
            w.kv("speedup_nt", r.scalarSeconds / r.engineNtSeconds);
            w.endObject();
        }
        w.endArray();
        w.key("lanes").beginArray();
        for (const auto &r : lane_rows) {
            w.beginObject();
            w.kv("kernel", r.kernel);
            w.kv("log_size", static_cast<uint64_t>(r.logSize));
            w.kv("scalar_level_seconds", r.scalarLevelSeconds);
            w.kv("lanes_seconds", r.activeLevelSeconds);
            w.kv("lanes_over_scalar",
                 r.scalarLevelSeconds / r.activeLevelSeconds);
            w.endObject();
        }
        w.endArray();
        w.key("counters").beginObject();
        for (const auto &[name, count] : g_measured_counters)
            w.kv(name, count);
        w.endObject();
        w.key("warmupCounters").beginObject();
        for (const auto &[name, count] : g_warmup_counters)
            w.kv(name, count);
        w.endObject();
        w.endObject();
        if (!obs::writeFile(stats_path, w.str()))
            unizk_fatal("cannot write ", stats_path);
        std::printf("\nwrote stats JSON: %s\n", stats_path.c_str());
    }
    return 0;
}
