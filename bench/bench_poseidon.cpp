/**
 * @file
 * Poseidon batch-hashing benchmark: the SIMD batch path
 * (Poseidon::permuteBatch and the hashing.h batch entry points) against
 * the scalar per-sponge path, at the dispatched SIMD level. The
 * batch-vs-scalar permute ratio is the gated metric in
 * tools/bench/BASELINE.json: it is a same-machine ratio, so it
 * transfers across hosts (on AVX2 hosts; the harness reports the
 * dispatched level so the gate can be waived where AVX2 is absent).
 *
 * Rows:
 *   permute       scalar permute() loop vs permuteBatch() at the
 *                 dispatched level (the gated ratio)
 *   permute-batch-scalar
 *                 permuteBatch() with the scalar backend forced:
 *                 isolates batching overhead from SIMD gain
 *   leaf-135      hashNoPad vs hashLeaves on 135-element leaves (the
 *                 paper's Merkle leaf width), read column-major
 *   merkle-2to1   hashTwoToOne vs hashTwoToOneBatch on digest pairs
 *
 * Flags:
 *   --states N        sponge states per reading (default 4096)
 *   --reps N          best-of-N readings (default 5)
 *   --smoke           tiny run (512 states, 2 reps) for the ctest leg
 *   --simd LEVEL      force {auto,avx2,scalar} dispatch for the run
 *   --stats-json PATH write a unizk-poseidon-bench-v1 JSON artifact
 */

#include <functional>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/stats.h"
#include "field/goldilocks_simd.h"
#include "hash/hashing.h"
#include "hash/poseidon.h"

using namespace unizk;
using namespace unizk::bench;

namespace {

std::vector<PoseidonState>
randomStates(size_t n, uint64_t seed)
{
    SplitMix64 rng(seed);
    std::vector<PoseidonState> states(n);
    for (auto &s : states)
        for (auto &x : s)
            x = randomFp(rng);
    return states;
}

/** Best-of-reps wall time of fn() after one untimed warmup. */
double
timeBest(unsigned reps, const std::function<void()> &fn)
{
    fn();
    double best = 0;
    for (unsigned r = 0; r < reps; ++r) {
        const Stopwatch watch;
        fn();
        const double s = watch.elapsedSeconds();
        if (r == 0 || s < best)
            best = s;
    }
    return best;
}

struct Row
{
    std::string kernel;
    double scalarSeconds = 0;
    double batchSeconds = 0;

    double
    speedup() const
    {
        return scalarSeconds / batchSeconds;
    }
};

} // namespace

int
main(int argc, char **argv)
{
    const CliOptions cli(argc, argv);
    const bool smoke = cli.has("smoke");
    const size_t n_states =
        cli.getUint("states", smoke ? 512 : 4096);
    const unsigned reps =
        static_cast<unsigned>(cli.getUint("reps", smoke ? 2 : 5));
    const std::string stats_path = cli.getString("stats-json", "");
    const std::string simd_flag = cli.getString("simd", "auto");

    if (simd_flag == "scalar") {
        setSimdLevel(SimdLevel::Scalar);
    } else if (simd_flag == "avx2") {
        if (!setSimdLevel(SimdLevel::Avx2))
            unizk_fatal("--simd avx2: AVX2 unavailable on this host");
    } else if (simd_flag != "auto") {
        unizk_fatal("--simd must be one of auto/avx2/scalar");
    }
    const SimdLevel level = activeSimdLevel();

    std::printf("=== Poseidon batch vs scalar (simd=%s, %zu states) "
                "===\n\n",
                simdLevelName(level), n_states);
    printRow({"Kernel", "Scalar (ms)", "Batch (ms)", "Speedup"}, 22);

    const Poseidon &poseidon = Poseidon::instance();
    std::vector<Row> rows;

    // The gated row: raw permutation throughput, scalar loop vs the
    // batched kernel at the dispatched level.
    {
        const auto input = randomStates(n_states, 1);
        Row row;
        row.kernel = "permute";
        row.scalarSeconds = timeBest(reps, [&] {
            auto work = input;
            for (auto &s : work)
                poseidon.permute(s);
        });
        row.batchSeconds = timeBest(reps, [&] {
            auto work = input;
            poseidon.permuteBatch(work.data(), work.size());
        });
        rows.push_back(row);
    }

    // Batching with the SIMD backend forced off: how much of the gain
    // is lane parallelism vs mere loop restructuring.
    {
        const auto input = randomStates(n_states, 2);
        Row row;
        row.kernel = "permute-batch-scalar";
        row.scalarSeconds = timeBest(reps, [&] {
            auto work = input;
            for (auto &s : work)
                poseidon.permute(s);
        });
        setSimdLevel(SimdLevel::Scalar);
        row.batchSeconds = timeBest(reps, [&] {
            auto work = input;
            poseidon.permuteBatch(work.data(), work.size());
        });
        setSimdLevel(level);
        rows.push_back(row);
    }

    // The paper's 135-element Merkle leaf, through the sponge.
    {
        SplitMix64 rng(3);
        std::vector<std::vector<Fp>> leaves(n_states / 8);
        for (auto &leaf : leaves) {
            leaf.resize(135);
            for (auto &x : leaf)
                x = randomFp(rng);
        }
        // The batch side reads the same leaves in place from a
        // column-major matrix, the layout of a committed LDE.
        const size_t count = leaves.size();
        std::vector<Fp> columns(135 * count);
        for (size_t i = 0; i < count; ++i)
            for (size_t j = 0; j < 135; ++j)
                columns[j * count + i] = leaves[i][j];
        const LeafView view =
            LeafView::columnMajor(columns.data(), 135, count);
        std::vector<HashOut> digests(count);
        Row row;
        row.kernel = "leaf-135";
        row.scalarSeconds = timeBest(reps, [&] {
            for (size_t i = 0; i < count; ++i)
                digests[i] = hashNoPad(leaves[i]);
        });
        row.batchSeconds = timeBest(reps, [&] {
            hashLeaves(view, 0, count, digests.data());
        });
        rows.push_back(row);
    }

    // Interior Merkle levels: two-to-one compression over digest pairs.
    {
        SplitMix64 rng(4);
        std::vector<HashOut> children(2 * n_states);
        for (auto &c : children)
            for (auto &e : c.elems)
                e = randomFp(rng);
        std::vector<HashOut> out(n_states);
        Row row;
        row.kernel = "merkle-2to1";
        row.scalarSeconds = timeBest(reps, [&] {
            for (size_t i = 0; i < n_states; ++i)
                out[i] = hashTwoToOne(children[2 * i],
                                      children[2 * i + 1]);
        });
        row.batchSeconds = timeBest(reps, [&] {
            hashTwoToOneBatch(children.data(), n_states, out.data());
        });
        rows.push_back(row);
    }

    for (const auto &r : rows)
        printRow({r.kernel, fmt(r.scalarSeconds * 1e3, 3),
                  fmt(r.batchSeconds * 1e3, 3), fmtX(r.speedup(), 2)},
                 22);

    if (!stats_path.empty()) {
        obs::JsonWriter w;
        w.beginObject();
        w.kv("schema", "unizk-poseidon-bench-v1");
        w.kv("simd", simdLevelName(level));
        w.kv("states", static_cast<uint64_t>(n_states));
        w.kv("smoke", smoke);
        w.key("rows").beginArray();
        for (const auto &r : rows) {
            w.beginObject();
            w.kv("kernel", r.kernel);
            w.kv("scalar_seconds", r.scalarSeconds);
            w.kv("batch_seconds", r.batchSeconds);
            w.kv("speedup", r.speedup());
            w.endObject();
        }
        w.endArray();
        w.endObject();
        if (!obs::writeFile(stats_path, w.str()))
            unizk_fatal("cannot write ", stats_path);
        std::printf("\nwrote stats JSON: %s\n", stats_path.c_str());
    }
    return 0;
}
