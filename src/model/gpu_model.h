/**
 * @file
 * Analytical model of the GPU baseline (Table 3's GPU column).
 *
 * The paper's GPU baseline runs a Plonky2 CUDA port on an A100 (80 GB,
 * 2 TB/s): NTT, Merkle-tree hashing, and element-wise polynomial
 * kernels execute on the GPU; every other kernel stays on the host
 * CPU, forcing back-and-forth PCIe transfers (Section 6, "Baselines";
 * Section 7.1 explains why the resulting speedups cap at 1.2-4.6x).
 *
 * No CUDA hardware is available in this environment, so the GPU column
 * is modeled (a documented substitution, DESIGN.md): per-kernel-class
 * GPU speedup factors over the measured CPU time, a host-resident
 * remainder, and PCIe transfer time derived from the recorded kernel
 * trace's data volumes.
 */

#ifndef UNIZK_MODEL_GPU_MODEL_H
#define UNIZK_MODEL_GPU_MODEL_H

#include "trace/kernel_class.h"
#include "trace/kernel_trace.h"

namespace unizk {

struct GpuModelParams
{
    /**
     * GPU-over-CPU speedups per accelerated kernel class, relative to
     * the (multithreaded) CPU baseline the caller supplies. NTT is
     * low: its strided butterflies make poor use of GPU memory
     * coalescing (the paper calls NTT memory accesses "not friendly to
     * GPUs").
     */
    double nttSpeedup = 2.5;
    double hashSpeedup = 6.0;
    double polySpeedup = 4.0;

    /** PCIe gen4 x16 effective bandwidth (bytes/second). */
    double pcieBytesPerSecond = 24e9;

    /** Fixed per-offloaded-kernel launch/synchronization cost. */
    double launchSeconds = 20e-6;
};

struct GpuEstimate
{
    double totalSeconds = 0.0;
    double gpuKernelSeconds = 0.0;
    double hostSeconds = 0.0;
    double transferSeconds = 0.0;
};

/**
 * Estimate GPU proof-generation time from the measured CPU kernel-time
 * breakdown and the recorded trace (for transfer volumes).
 */
GpuEstimate estimateGpuTime(const KernelTimeBreakdown &cpu,
                            const KernelTrace &trace,
                            const GpuModelParams &params = {});

} // namespace unizk

#endif // UNIZK_MODEL_GPU_MODEL_H
