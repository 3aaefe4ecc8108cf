/**
 * @file
 * google-benchmark micro-benchmarks for the computational substrates:
 * Goldilocks field ops, NTTs, Poseidon permutations, Merkle trees, and
 * the element-wise / partial-product kernels. These characterize the
 * CPU baseline's per-kernel throughput (the denominators behind the
 * Table 3 / Figure 9 speedups).
 */

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "hash/hashing.h"
#include "merkle/merkle_tree.h"
#include "ntt/ntt.h"
#include "poly/polynomial.h"

namespace unizk {
namespace {

/** Benchmark Arg() values are int64_t; sizes in this repo are size_t. */
size_t
rangeSize(const benchmark::State &state)
{
    return static_cast<size_t>(state.range(0));
}

std::vector<Fp>
randomVector(size_t n, uint64_t seed = 7)
{
    SplitMix64 rng(seed);
    std::vector<Fp> v(n);
    for (auto &x : v)
        x = randomFp(rng);
    return v;
}

void
BM_FieldMul(benchmark::State &state)
{
    SplitMix64 rng(1);
    Fp a = randomFp(rng), b = randomFp(rng);
    for (auto _ : state) {
        a *= b;
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(BM_FieldMul);

void
BM_FieldInverse(benchmark::State &state)
{
    SplitMix64 rng(2);
    Fp a = randomFp(rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(a.inverse());
        a += Fp::one();
    }
}
BENCHMARK(BM_FieldInverse);

void
BM_BatchInverse(benchmark::State &state)
{
    const auto base = randomVector(rangeSize(state), 3);
    for (auto _ : state) {
        auto v = base;
        batchInverse(v);
        benchmark::DoNotOptimize(v.data());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BatchInverse)->Arg(1024)->Arg(65536);

void
BM_NttForward(benchmark::State &state)
{
    const auto base = randomVector(rangeSize(state), 4);
    for (auto _ : state) {
        auto v = base;
        nttNR(v);
        benchmark::DoNotOptimize(v.data());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NttForward)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void
BM_LowDegreeExtension(benchmark::State &state)
{
    const auto base = randomVector(rangeSize(state), 5);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            lowDegreeExtension(base, 8, defaultCosetShift()));
    }
    state.SetItemsProcessed(state.iterations() * state.range(0) * 8);
}
BENCHMARK(BM_LowDegreeExtension)->Arg(1 << 10)->Arg(1 << 13);

void
BM_PoseidonPermutation(benchmark::State &state)
{
    const auto &p = Poseidon::instance();
    PoseidonState s{};
    for (size_t i = 0; i < s.size(); ++i)
        s[i] = Fp(i + 1);
    for (auto _ : state) {
        p.permute(s);
        benchmark::DoNotOptimize(s.data());
    }
}
BENCHMARK(BM_PoseidonPermutation);

void
BM_PoseidonPermutationNaive(benchmark::State &state)
{
    const auto &p = Poseidon::instance();
    PoseidonState s{};
    for (size_t i = 0; i < s.size(); ++i)
        s[i] = Fp(i + 1);
    for (auto _ : state) {
        p.permuteNaive(s);
        benchmark::DoNotOptimize(s.data());
    }
}
BENCHMARK(BM_PoseidonPermutationNaive);

void
BM_HashLeaf135(benchmark::State &state)
{
    // The paper's leaf width: 135 elements -> 17 sponge permutations.
    const auto leaf = randomVector(135, 6);
    for (auto _ : state)
        benchmark::DoNotOptimize(hashNoPad(leaf));
}
BENCHMARK(BM_HashLeaf135);

void
BM_MerkleTreeBuild(benchmark::State &state)
{
    // 16-element leaves read in place from a column-major matrix, the
    // layout of a committed LDE.
    const size_t leaves = rangeSize(state);
    const auto data = randomVector(16 * leaves, 16);
    const LeafView view = LeafView::columnMajor(data.data(), 16, leaves);
    for (auto _ : state) {
        MerkleTree tree(view, 4);
        benchmark::DoNotOptimize(tree.cap().data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(leaves));
}
BENCHMARK(BM_MerkleTreeBuild)->Arg(1 << 10)->Arg(1 << 13);

void
BM_VecMul(benchmark::State &state)
{
    const auto a = randomVector(rangeSize(state), 8);
    const auto b = randomVector(rangeSize(state), 9);
    for (auto _ : state)
        benchmark::DoNotOptimize(vecMul(a, b).data());
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_VecMul)->Arg(1 << 14)->Arg(1 << 18);

void
BM_PartialProductsGrouped(benchmark::State &state)
{
    const auto h = randomVector(rangeSize(state), 10);
    for (auto _ : state)
        benchmark::DoNotOptimize(partialProductsGrouped(h, 32).data());
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PartialProductsGrouped)->Arg(1 << 14);

} // namespace
} // namespace unizk

BENCHMARK_MAIN();
