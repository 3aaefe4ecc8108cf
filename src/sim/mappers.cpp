#include "sim/mappers.h"

#include "common/bits.h"
#include "merkle/merkle_tree.h"
#include "ntt/ntt.h"

namespace unizk {

namespace {

/** Combine compute and (double-buffered) memory into a latency. */
void
finalize(KernelSim &sim, const HardwareConfig &cfg)
{
    sim.cycles = std::max(sim.computeCycles, sim.mem.cycles) +
                 cfg.kernelLaunchOverhead;
}

/** VSAs occupied by a kernel exposing @p units parallel work units. */
uint32_t
vsasForUnits(uint64_t units, const HardwareConfig &cfg)
{
    if (units >= cfg.numVsas)
        return cfg.numVsas;
    return units == 0 ? 1 : static_cast<uint32_t>(units);
}

/**
 * Scratchpad accounting for a kernel whose working set streams through
 * once: occupancy saturates at the tile capacity, and each tile beyond
 * the first capacity-full is an eviction.
 */
void
chargeScratchpad(KernelSim &sim, uint64_t working_bytes,
                 const HardwareConfig &cfg)
{
    const uint64_t cap = cfg.tileCapacityBytes();
    sim.scratchpadBytesUsed = std::min(working_bytes, cap);
    sim.scratchpadEvictions =
        working_bytes > cap ? ceilDiv(working_bytes, cap) - 1 : 0;
}

/**
 * Poseidon permutation throughput of the whole chip: each VSA streams
 * states through `poseidonPassesPerPermutation` pipelined passes at one
 * state per cycle per pass.
 */
uint64_t
permutationComputeCycles(uint64_t permutations, const HardwareConfig &cfg)
{
    if (permutations == 0)
        return 0;
    // Without the reverse links the 12x3 partial-round mapping of
    // Fig. 5b is impossible: each of the 22 partial rounds needs its
    // own full-array pass instead of 4 rounds per pass.
    const uint64_t passes = cfg.enableReverseLinks
                                ? poseidonPassesPerPermutation
                                : poseidonPassesPerPermutation - 6 + 22;
    return permutations * passes / cfg.numVsas +
           poseidonPipelineLatency;
}

} // namespace

KernelSim
mapNtt(const NttKernel &k, const HardwareConfig &cfg)
{
    KernelSim sim;
    sim.cls = KernelClass::Ntt;

    const uint64_t n = uint64_t{1} << k.logSize;
    const uint64_t total_elems = n * k.batch;
    const uint64_t data_bytes = total_elems * 8;

    // Fixed pipeline NTT size 2^5 on 6-PE pipelines (Sec. 5.1); each
    // VSA row holds two chained pipelines, covering two decomposed
    // dimensions per trip with the transpose buffer in between. The
    // unsplit ablation uses one 12-PE pipeline (n = 2^11): a single
    // dimension per trip and register-file spills that halve the
    // per-row rate.
    const uint32_t dims_per_trip = cfg.splitNttPipelines ? 2 : 1;
    const uint32_t log_pipeline = cfg.splitNttPipelines ? 5 : 11;
    const auto dims = decomposeNttDims(std::max<uint32_t>(k.logSize, 1),
                                       log_pipeline);
    const uint64_t trips = ceilDiv(dims.size(), dims_per_trip);

    // Per-VSA throughput: vsaDim rows x 2 elements/cycle per pipeline
    // chain (halved without the split).
    const uint64_t elems_per_cycle =
        static_cast<uint64_t>(cfg.vsaDim) * 2 * cfg.numVsas /
        (cfg.splitNttPipelines ? 1 : 2);
    sim.computeCycles =
        trips * total_elems / elems_per_cycle + 64 /* pipeline fill */;

    // Memory: every trip streams the data through the chip; when the
    // whole working set fits in half the scratchpad only the first read
    // and last write touch DRAM.
    const bool fits = data_bytes <= cfg.tileCapacityBytes();
    const uint64_t dram_trips = fits ? 1 : trips;

    // Access granularity (Sec. 5.1 "Data layouts"): poly-major data
    // streams whole polynomials; index-major goes through the b=16
    // transpose buffer giving b-element runs. Bit-reversed output is
    // locally shuffled in the scratchpad into runs of the innermost
    // dimension.
    const uint32_t run_in =
        k.layout == PolyLayout::PolyMajor
            ? 0
            : cfg.transposeDim * 8;
    const uint32_t run_out =
        k.bitrevOutput ? (uint32_t{1} << dims.front()) * 8 * cfg.transposeDim
                       : run_in;

    std::vector<MemStream> streams;
    for (uint64_t t = 0; t < dram_trips; ++t) {
        streams.push_back({data_bytes, run_in, false});
        streams.push_back({data_bytes, run_out, true});
    }
    sim.mem = DramModel(cfg).accessAll(streams);

    // Each VSA row feeds on 2 elements/cycle: a kernel with fewer
    // elements than the chip consumes per cycle leaves VSAs unused.
    sim.vsasUsed = vsasForUnits(
        ceilDiv(total_elems,
                static_cast<uint64_t>(cfg.vsaDim) * 2),
        cfg);
    // Tiles restream once per DRAM trip; all trips but the last evict
    // their tile set (the final write-back is output, not an eviction).
    const uint64_t tiles = ceilDiv(data_bytes, cfg.tileCapacityBytes());
    sim.scratchpadBytesUsed =
        std::min(data_bytes, cfg.tileCapacityBytes());
    sim.scratchpadEvictions = (dram_trips - 1) * tiles;
    finalize(sim, cfg);
    return sim;
}

KernelSim
mapMerkle(const MerkleKernel &k, const HardwareConfig &cfg)
{
    KernelSim sim;
    sim.cls = KernelClass::MerkleTree;

    const uint64_t perms = MerkleTree::permutationCount(
        k.leafCount, k.leafLength, k.capHeight);
    sim.computeCycles = permutationComputeCycles(perms, cfg);

    // Read the leaf data (index-major slices already transposed), write
    // the tree nodes in level order; interior levels of each on-chip
    // subtree never touch DRAM.
    const uint64_t leaf_bytes =
        k.leafCount * static_cast<uint64_t>(k.leafLength) * 8;
    const uint64_t node_bytes = 2 * k.leafCount * sizeof(HashOut);
    std::vector<MemStream> streams{
        {leaf_bytes, static_cast<uint32_t>(k.leafLength) * 8, false},
        {node_bytes, 0, true},
    };
    sim.mem = DramModel(cfg).accessAll(streams);
    sim.vsasUsed = vsasForUnits(perms, cfg);
    chargeScratchpad(sim, leaf_bytes + node_bytes, cfg);
    finalize(sim, cfg);
    return sim;
}

KernelSim
mapHash(const HashKernel &k, const HardwareConfig &cfg)
{
    KernelSim sim;
    sim.cls = KernelClass::OtherHash;
    sim.computeCycles = permutationComputeCycles(k.permutations, cfg);
    // Transcript state lives on-chip; negligible DRAM traffic. The
    // sponge state is 12 elements (96 B) per in-flight permutation.
    sim.vsasUsed = vsasForUnits(k.permutations, cfg);
    chargeScratchpad(
        sim, std::min<uint64_t>(k.permutations, cfg.numVsas) * 96, cfg);
    finalize(sim, cfg);
    return sim;
}

KernelSim
mapVecOp(const VecOpKernel &k, const HardwareConfig &cfg)
{
    KernelSim sim;
    sim.cls = KernelClass::Polynomial;

    // Vector mode: every PE is an independent lane with one modular
    // multiplier and two adders; budget two operations per PE-cycle.
    const uint64_t total_ops =
        k.length * static_cast<uint64_t>(k.opsPerElement);
    const uint64_t ops_per_cycle = cfg.totalPes();
    sim.computeCycles = ceilDiv(total_ops, ops_per_cycle);

    const uint64_t vec_bytes = k.length * 8;
    std::vector<MemStream> streams;
    for (uint32_t i = 0; i < k.inputVectors; ++i) {
        streams.push_back({vec_bytes, k.randomAccessGranularity, false,
                           cfg.vecOpStreamEfficiency});
    }
    for (uint32_t o = 0; o < k.outputVectors; ++o)
        streams.push_back({vec_bytes, 0, true,
                           cfg.vecOpStreamEfficiency});
    sim.mem = DramModel(cfg).accessAll(streams);
    sim.vsasUsed = vsasForUnits(
        ceilDiv(k.length,
                static_cast<uint64_t>(cfg.vsaDim) * cfg.vsaDim),
        cfg);
    chargeScratchpad(
        sim, vec_bytes * (k.inputVectors + k.outputVectors), cfg);
    finalize(sim, cfg);
    return sim;
}

KernelSim
mapPartialProduct(const PartialProductKernel &k, const HardwareConfig &cfg)
{
    KernelSim sim;
    sim.cls = KernelClass::Polynomial;

    // Fig. 6a: each PE accumulates 16 q-values into 2 chunks.
    const uint64_t chunk_cycles = ceilDiv(k.length, cfg.totalPes());
    // Fig. 6b: 32-chunk groups per PE -- local partial products (32),
    // serial neighbour propagation (one hop per group), local finalize
    // (32). Without the grouped schedule Eq. 2's dependency chain
    // serializes over every chunk.
    const uint64_t h_len = k.length / k.chunkSize;
    const uint64_t groups = ceilDiv(h_len, 32);
    sim.computeCycles = cfg.groupedPartialProducts
                            ? chunk_cycles + 64 + groups
                            : chunk_cycles + h_len;

    std::vector<MemStream> streams{
        {k.length * 8, 0, false},
        {(k.length / k.chunkSize) * 8, 0, true},
    };
    sim.mem = DramModel(cfg).accessAll(streams);
    sim.vsasUsed = vsasForUnits(
        ceilDiv(k.length,
                static_cast<uint64_t>(cfg.vsaDim) * cfg.vsaDim),
        cfg);
    chargeScratchpad(sim, k.length * 8 + h_len * 8, cfg);
    finalize(sim, cfg);
    return sim;
}

KernelSim
mapTranspose(const TransposeKernel &k, const HardwareConfig &cfg)
{
    KernelSim sim;
    sim.cls = KernelClass::LayoutTransform;
    if (cfg.enableTransposeBuffer) {
        // The global transpose buffer performs layout transforms
        // implicitly while fetching data for the adjacent kernels
        // (Sec. 4): no cycles and no extra DRAM traffic are charged.
        // The kernel stays in the trace so reports can show the cost
        // is architecturally hidden.
        return sim;
    }
    // Ablation: an explicit transpose pass with element-granular
    // writes (8-byte scattered runs). Pure data movement: the VSAs
    // idle while the tiles stream through the scratchpad.
    const uint64_t bytes = k.rows * k.cols * 8;
    std::vector<MemStream> streams{{bytes, 0, false}, {bytes, 8, true}};
    sim.mem = DramModel(cfg).accessAll(streams);
    chargeScratchpad(sim, bytes, cfg);
    finalize(sim, cfg);
    return sim;
}

KernelSim
mapSumCheck(const SumCheckKernel &k, const HardwareConfig &cfg)
{
    KernelSim sim;
    sim.cls = KernelClass::Polynomial;

    // Per round i (table size 2^(logSize-i)): one multiply-add per pair
    // for the fold plus a tree reduction for the two sums, both in
    // vector mode using the systolic links for accumulation. Total work
    // telescopes to ~2 * 2^logSize operations.
    const uint64_t table = uint64_t{1} << k.logSize;
    const uint64_t total_ops = 4 * table; // fold mul+add, two sums
    sim.computeCycles = ceilDiv(total_ops, cfg.totalPes()) +
                        k.logSize * 32 /* per-round reduction drain */;

    // Each round streams the current table in and the halved table out
    // until the working set fits in the scratchpad.
    std::vector<MemStream> streams;
    uint64_t bytes = table * 8;
    uint64_t spilled_rounds = 0;
    while (bytes > cfg.tileCapacityBytes()) {
        streams.push_back({bytes, 0, false,
                           cfg.vecOpStreamEfficiency});
        streams.push_back({bytes / 2, 0, true,
                           cfg.vecOpStreamEfficiency});
        bytes /= 2;
        ++spilled_rounds;
    }
    if (streams.empty())
        streams.push_back({bytes, 0, false, cfg.vecOpStreamEfficiency});
    sim.mem = DramModel(cfg).accessAll(streams);
    sim.vsasUsed = vsasForUnits(
        ceilDiv(table, static_cast<uint64_t>(cfg.vsaDim) * cfg.vsaDim),
        cfg);
    sim.scratchpadBytesUsed =
        std::min(table * 8, cfg.tileCapacityBytes());
    sim.scratchpadEvictions = spilled_rounds;
    finalize(sim, cfg);
    return sim;
}

KernelSim
mapKernel(const KernelPayload &payload, const HardwareConfig &cfg)
{
    struct Visitor
    {
        const HardwareConfig &cfg;

        KernelSim operator()(const NttKernel &k) { return mapNtt(k, cfg); }
        KernelSim
        operator()(const MerkleKernel &k)
        {
            return mapMerkle(k, cfg);
        }
        KernelSim operator()(const HashKernel &k)
        {
            return mapHash(k, cfg);
        }
        KernelSim operator()(const VecOpKernel &k)
        {
            return mapVecOp(k, cfg);
        }
        KernelSim
        operator()(const PartialProductKernel &k)
        {
            return mapPartialProduct(k, cfg);
        }
        KernelSim
        operator()(const TransposeKernel &k)
        {
            return mapTranspose(k, cfg);
        }
        KernelSim
        operator()(const SumCheckKernel &k)
        {
            return mapSumCheck(k, cfg);
        }
    };
    return std::visit(Visitor{cfg}, payload);
}

} // namespace unizk
