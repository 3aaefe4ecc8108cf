/**
 * @file
 * Shared instrumentation context threaded through the provers: a
 * wall-clock kernel-time breakdown for the CPU baseline (Table 1),
 * filled by KernelScope (trace/kernel_class.h), and a TraceRecorder for
 * the simulator frontend. The two are separate on purpose: the trace
 * also records UniZK kernels the CPU does not run, and its op order
 * fixes the simulated cycles. Both are optional; null members disable
 * the corresponding instrumentation.
 */

#ifndef UNIZK_TRACE_PROVER_CONTEXT_H
#define UNIZK_TRACE_PROVER_CONTEXT_H

#include "trace/kernel_class.h"
#include "trace/kernel_trace.h"

namespace unizk {

struct ProverContext
{
    KernelTimeBreakdown *breakdown = nullptr;
    TraceRecorder *recorder = nullptr;

    void
    record(KernelPayload payload, std::string label) const
    {
        if (recorder)
            recorder->record(std::move(payload), std::move(label));
    }
};

} // namespace unizk

#endif // UNIZK_TRACE_PROVER_CONTEXT_H
