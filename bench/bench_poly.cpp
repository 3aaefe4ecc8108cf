/**
 * @file
 * Polynomial-class lane benchmark: the Plonk quotient's constraint
 * kernel (plonk/quotient_kernel.h) on one thread, at the scalar SIMD
 * level and at the dispatched one (setSimdLevel), on random columns of
 * the factorial workload's shape (one public row, several
 * repetitions). lanes_over_scalar is gated as
 * poly.quotient_lanes_over_scalar in tools/bench/BASELINE.json; like
 * ntt.lanes_over_scalar it is waived where the dispatched level is not
 * avx2.
 *
 * Flags:
 *   --log N            quotient-domain size 2^N (default 15, the
 *                      factorial quotient's 4n points)
 *   --reps N           constraint repetitions (default 16)
 *   --readings N       best-of-N readings (default 20)
 *   --smoke            tiny run (2^10 points, 2 readings) for ctest
 *   --stats-json PATH  write a unizk-poly-bench-v1 JSON artifact
 */

#include <functional>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/stats.h"
#include "field/goldilocks_simd.h"
#include "plonk/plonk.h"
#include "plonk/quotient_kernel.h"

using namespace unizk;
using namespace unizk::bench;

namespace {

/** Random columns and constants behind one PlonkQuotientInputs. */
struct QuotientColumns
{
    std::vector<std::vector<Fp>> cols;
    std::vector<const Fp *> lagrange, wires, z;
    std::vector<Fp> negPublic, alphas;
    PlonkQuotientInputs in;

    QuotientColumns(size_t points, size_t reps)
    {
        SplitMix64 rng(points + reps);
        // 5 selectors, 3 sigmas, xs, l1, one Lagrange column, then
        // 3 wires and one Z per repetition.
        cols.resize(11 + 4 * reps, std::vector<Fp>(points));
        for (auto &col : cols)
            for (Fp &v : col)
                v = randomFp(rng);
        in.points = points;
        in.rotation = 4; // the Plonk quotient blowup
        in.reps = reps;
        in.numPublic = 1;
        for (size_t t = 0; t < 5; ++t)
            in.selectors[t] = cols[t].data();
        for (size_t j = 0; j < 3; ++j)
            in.sigmas[j] = cols[5 + j].data();
        in.xs = cols[8].data();
        in.l1 = cols[9].data();
        lagrange.push_back(cols[10].data());
        for (size_t t = 0; t < 3 * reps; ++t)
            wires.push_back(cols[11 + t].data());
        for (size_t r = 0; r < reps; ++r)
            z.push_back(cols[11 + 3 * reps + r].data());
        in.lagrangePublic = lagrange.data();
        in.wires = wires.data();
        in.z = z.data();
        for (size_t r = 0; r < reps; ++r)
            negPublic.push_back(randomFp(rng));
        in.negPublic = negPublic.data();
        for (size_t t = 0; t < 3 * reps; ++t)
            alphas.push_back(randomFp(rng));
        in.alphas = alphas.data();
        in.beta = randomFp(rng);
        in.gamma = randomFp(rng);
        for (size_t j = 0; j < 3; ++j)
            in.betaShift[j] = in.beta * plonkCosetShift(j);
        for (Fp &v : in.zhInverse)
            v = randomFp(rng);
    }
};

/** Best-of-readings wall time of fn() after one untimed warmup. */
double
timeBest(unsigned readings, const std::function<void()> &fn)
{
    fn();
    double best = 0;
    for (unsigned r = 0; r < readings; ++r) {
        const Stopwatch watch;
        fn();
        const double s = watch.elapsedSeconds();
        if (r == 0 || s < best)
            best = s;
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    const CliOptions cli(argc, argv);
    const bool smoke = cli.has("smoke");
    const auto log =
        static_cast<uint32_t>(cli.getUint("log", smoke ? 10 : 15));
    const size_t reps = cli.getUint("reps", 16);
    const auto readings =
        static_cast<unsigned>(cli.getUint("readings", smoke ? 2 : 20));
    const std::string stats_path = cli.getString("stats-json", "");

    const size_t points = size_t{1} << log;
    const QuotientColumns q(points, reps);
    std::vector<Fp> out(points);
    const SimdLevel level = activeSimdLevel();
    auto run_at = [&](SimdLevel l) {
        return timeBest(readings, [&] {
            plonkQuotientRange(l, q.in, out.data(), 0, points);
        });
    };
    const double scalar_s = run_at(SimdLevel::Scalar);
    const double lanes_s = run_at(level);

    std::printf("=== Plonk quotient kernel: lanes (simd=%s) vs scalar "
                "level, 1 thread ===\n\n",
                simdLevelName(level));
    printRow({"Kernel", "Points", "Reps", "Scalar (ms)", "Lanes (ms)",
              "Gain"});
    printRow({"plonk-quotient", "2^" + std::to_string(log),
              std::to_string(reps), fmt(scalar_s * 1e3, 3),
              fmt(lanes_s * 1e3, 3), fmtX(scalar_s / lanes_s)});

    if (!stats_path.empty()) {
        obs::JsonWriter w;
        w.beginObject();
        w.kv("schema", "unizk-poly-bench-v1");
        w.kv("smoke", smoke);
        w.kv("simd", simdLevelName(level));
        w.key("lanes").beginArray();
        w.beginObject();
        w.kv("kernel", "plonk-quotient");
        w.kv("log_size", static_cast<uint64_t>(log));
        w.kv("reps", static_cast<uint64_t>(reps));
        w.kv("scalar_level_seconds", scalar_s);
        w.kv("lanes_seconds", lanes_s);
        w.kv("lanes_over_scalar", scalar_s / lanes_s);
        w.endObject();
        w.endArray();
        w.endObject();
        if (!obs::writeFile(stats_path, w.str()))
            unizk_fatal("cannot write ", stats_path);
        std::printf("\nwrote stats JSON: %s\n", stats_path.c_str());
    }
    return 0;
}
