#include "trace/kernel_class.h"

#include "common/logging.h"
#include "common/thread_pool.h"
#include "trace/prover_context.h"

namespace unizk {

namespace {

/** True while a KernelScope is open on this thread. */
thread_local bool in_kernel_scope = false;

} // namespace

const char *
kernelClassName(KernelClass c)
{
    switch (c) {
      case KernelClass::Polynomial:
        return "Polynomial";
      case KernelClass::Ntt:
        return "NTT";
      case KernelClass::MerkleTree:
        return "MerkleTree";
      case KernelClass::OtherHash:
        return "OtherHash";
      case KernelClass::LayoutTransform:
        return "LayoutTransform";
      default:
        unizk_panic("unknown kernel class");
    }
}

double
KernelTimeBreakdown::total() const
{
    double t = 0.0;
    for (const double s : seconds_)
        t += s;
    return t;
}

double
KernelTimeBreakdown::fraction(KernelClass c) const
{
    const double t = total();
    return t > 0.0 ? seconds(c) / t : 0.0;
}

KernelTimeBreakdown
KernelTimeBreakdown::scaledBy(double factor) const
{
    KernelTimeBreakdown out = *this;
    for (double &s : out.seconds_)
        s *= factor;
    return out;
}

KernelScope::KernelScope(const ProverContext &ctx, KernelClass cls,
                         const char *span)
    : span_(span), breakdown_(ctx.breakdown), cls_(cls)
{
    if (onPoolWorker())
        unizk_panic("KernelScope ", span, " opened inside a pool chunk");
    if (in_kernel_scope)
        unizk_panic("KernelScope ", span, " nested in another KernelScope");
    in_kernel_scope = true;
}

KernelScope::~KernelScope()
{
    in_kernel_scope = false;
    if (breakdown_)
        breakdown_->add(cls_, watch_.elapsedSeconds());
}

} // namespace unizk
