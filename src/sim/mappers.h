/**
 * @file
 * Kernel mappers: the simulator backend of the paper's Section 5. Each
 * mapper turns one recorded kernel into compute-cycle demand, memory
 * streams, and utilization figures, following the mapping strategies:
 *
 *  - NTT (5.1): multi-dimensional decomposition into size-2^5 NTTs on
 *    6-PE MDC pipelines, two pipelines per VSA row chained through the
 *    transpose buffer, 2 elements/cycle each; on-the-fly twiddles.
 *  - Poseidon (5.2): 15 pipelined passes per permutation (8 full
 *    rounds, one pre-partial pass, 6 partial-round groups of 4), one
 *    state accepted per cycle per pass.
 *  - Merkle tree (5.3): subtree-at-a-time construction, hashes spread
 *    across all VSAs, level-order sequential node layout.
 *  - Element-wise / partial products (5.4): vector mode with tiling;
 *    the three-step grouped partial-product schedule of Fig. 6b.
 */

#ifndef UNIZK_SIM_MAPPERS_H
#define UNIZK_SIM_MAPPERS_H

#include <vector>

#include "sim/dram.h"
#include "sim/hw_config.h"
#include "trace/kernel_class.h"
#include "trace/kernel_trace.h"

namespace unizk {

/** Simulated execution of one kernel. */
struct KernelSim
{
    /** Final kernel latency: max(compute, memory) + launch overhead. */
    uint64_t cycles = 0;

    /** Cycles the VSAs need with memory infinitely fast. */
    uint64_t computeCycles = 0;

    /** Memory-system outcome (cycles + request counters). */
    DramResult mem;

    /** Kernel class for Table-1/Fig-8 style aggregation. */
    KernelClass cls = KernelClass::Polynomial;

    /**
     * VSAs the mapping occupies: all of them once the kernel exposes
     * at least numVsas parallel work units, fewer for small kernels.
     * VSAs beyond this count idle for the kernel's full latency in the
     * per-VSA cycle accounting.
     */
    uint32_t vsasUsed = 0;

    /** Scratchpad high-water occupancy of this kernel (bytes). */
    uint64_t scratchpadBytesUsed = 0;

    /**
     * Tile evictions: working-set tiles written back to DRAM because
     * the kernel's data exceeds the (half, double-buffered) scratchpad.
     */
    uint64_t scratchpadEvictions = 0;
};

/**
 * Pipelined passes one Poseidon permutation makes through a VSA:
 * 4 passes for the 8 full rounds (two folded rounds per 12x8-region
 * pass), the pre-partial layer merged with the first partial-round
 * group, and 6 passes of 4 partial rounds each (12x3 PEs per round,
 * Fig. 5b).
 */
constexpr uint64_t poseidonPassesPerPermutation = 10;

/** Fill/drain latency of one full permutation through the passes. */
constexpr uint64_t poseidonPipelineLatency = 500;

KernelSim mapNtt(const NttKernel &k, const HardwareConfig &cfg);
KernelSim mapMerkle(const MerkleKernel &k, const HardwareConfig &cfg);
KernelSim mapHash(const HashKernel &k, const HardwareConfig &cfg);
KernelSim mapVecOp(const VecOpKernel &k, const HardwareConfig &cfg);
KernelSim mapPartialProduct(const PartialProductKernel &k,
                            const HardwareConfig &cfg);
KernelSim mapTranspose(const TransposeKernel &k,
                       const HardwareConfig &cfg);
KernelSim mapSumCheck(const SumCheckKernel &k, const HardwareConfig &cfg);

/** Dispatch on the payload type. */
KernelSim mapKernel(const KernelPayload &payload,
                    const HardwareConfig &cfg);

} // namespace unizk

#endif // UNIZK_SIM_MAPPERS_H
