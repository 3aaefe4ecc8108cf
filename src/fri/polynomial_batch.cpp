#include "fri/polynomial_batch.h"

#include <memory>

#include "common/thread_pool.h"
#include "ntt/ntt.h"
#include "obs/obs.h"

namespace unizk {

PolynomialBatch
PolynomialBatch::fromValues(std::vector<std::vector<Fp>> values,
                            const FriConfig &cfg, const ProverContext &ctx,
                            const std::string &label)
{
    unizk_assert(!values.empty(), "empty polynomial batch");
    const size_t n = values[0].size();
    {
        ScopedKernelTimer timer(ctx.breakdown, KernelClass::Ntt);
        UNIZK_SPAN("commit/values-intt");
        inttBatchNN(values);
    }
    ctx.record(NttKernel{log2Exact(n), values.size(), /*inverse=*/true,
                         /*coset=*/false, /*bitrevOutput=*/false,
                         PolyLayout::PolyMajor},
               label + ": iNTT^NN");
    return PolynomialBatch(std::move(values), cfg, ctx, label);
}

PolynomialBatch
PolynomialBatch::fromCoefficients(std::vector<std::vector<Fp>> coeffs,
                                  const FriConfig &cfg,
                                  const ProverContext &ctx,
                                  const std::string &label)
{
    return PolynomialBatch(std::move(coeffs), cfg, ctx, label);
}

PolynomialBatch::PolynomialBatch(std::vector<std::vector<Fp>> coeffs,
                                 const FriConfig &cfg,
                                 const ProverContext &ctx,
                                 const std::string &label)
    : coeffs_(std::move(coeffs)), n_(coeffs_.at(0).size()), cfg_(cfg)
{
    unizk_assert(isPowerOfTwo(n_), "degree bound must be a power of two");
    const size_t lde_size = ldeSize();
    const size_t num_polys = coeffs_.size();

    // Coset LDE per polynomial (NTT^NR), building the index-major
    // leaves on the fly: leaf i = values of all polynomials at LDE
    // point i (bit-reversed order).
    std::vector<std::vector<Fp>> leaves(lde_size);
    parallelFor(0, lde_size, /*grain=*/512, [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i)
            leaves[i].resize(num_polys);
    });
    {
        std::vector<std::vector<Fp>> ldes;
        {
            ScopedKernelTimer timer(ctx.breakdown, KernelClass::Ntt);
            UNIZK_SPAN("commit/lde");
            ldes = ldeBatch(coeffs_, cfg_.blowup(), cfg_.shift());
        }
        // Poly-major -> index-major transpose while forming leaves; on
        // the CPU this is real work (Table 1's Layout Transform), on
        // UniZK the transpose buffer hides it. Parallel over leaf rows:
        // each destination row is written by exactly one chunk.
        ScopedKernelTimer timer(ctx.breakdown,
                                KernelClass::LayoutTransform);
        UNIZK_SPAN("commit/leaf-transpose");
        parallelFor(0, lde_size, /*grain=*/256,
                    [&](size_t lo, size_t hi) {
                        for (size_t i = lo; i < hi; ++i)
                            for (size_t p = 0; p < num_polys; ++p)
                                leaves[i][p] = ldes[p][i];
                    });
    }
    ctx.record(NttKernel{log2Exact(lde_size), num_polys, /*inverse=*/false,
                         /*coset=*/true, /*bitrevOutput=*/true,
                         PolyLayout::PolyMajor},
               label + ": LDE coset-NTT^NR");
    // Forming index-major leaves from poly-major LDE output is the
    // layout transform the global transpose buffer hides on UniZK.
    ctx.record(TransposeKernel{num_polys, lde_size},
               label + ": leaf transpose");

    const uint32_t cap_height =
        std::min<uint32_t>(cfg_.capHeight, log2Exact(lde_size));
    {
        ScopedKernelTimer timer(ctx.breakdown, KernelClass::MerkleTree);
        UNIZK_SPAN("commit/merkle-tree");
        tree_ = std::make_unique<MerkleTree>(std::move(leaves), cap_height);
    }
    ctx.record(MerkleKernel{lde_size, static_cast<uint32_t>(num_polys),
                            cap_height},
               label + ": Merkle tree");
}

Fp2
PolynomialBatch::evalExt(size_t i, Fp2 z) const
{
    const auto &c = coeffs_.at(i);
    Fp2 acc;
    for (size_t k = c.size(); k-- > 0;)
        acc = acc * z + Fp2(c[k]);
    return acc;
}

std::vector<Fp2>
PolynomialBatch::evalAllExt(Fp2 z) const
{
    return evalEachExt(coeffs_, z);
}

} // namespace unizk
