#include "fri/polynomial_batch.h"

#include <memory>

#include "ntt/ntt.h"

namespace unizk {

PolynomialBatch
PolynomialBatch::fromValues(std::vector<Fp> values, size_t n, size_t count,
                            const FriConfig &cfg, const ProverContext &ctx,
                            const std::string &label)
{
    unizk_assert(values.size() == n * count,
                 "batch values must be count x n");
    {
        const KernelScope scope(ctx, KernelClass::Ntt, "commit/values-intt");
        inttBatchNN(values.data(), n, count);
    }
    ctx.record(NttKernel{log2Exact(n), count, /*inverse=*/true,
                         /*coset=*/false, /*bitrevOutput=*/false,
                         PolyLayout::PolyMajor},
               label + ": iNTT^NN");
    return PolynomialBatch(std::move(values), n, cfg, ctx, label);
}

PolynomialBatch
PolynomialBatch::fromCoefficients(std::vector<Fp> coeffs, size_t n,
                                  size_t count, const FriConfig &cfg,
                                  const ProverContext &ctx,
                                  const std::string &label)
{
    unizk_assert(coeffs.size() >= n * count,
                 "fewer coefficients than count x n");
    coeffs.resize(n * count);
    return PolynomialBatch(std::move(coeffs), n, cfg, ctx, label);
}

PolynomialBatch::PolynomialBatch(std::vector<Fp> coeffs, size_t n,
                                 const FriConfig &cfg,
                                 const ProverContext &ctx,
                                 const std::string &label)
    : coeffs_(std::move(coeffs)), n_(n), cfg_(cfg)
{
    unizk_assert(isPowerOfTwo(n_), "degree bound must be a power of two");
    const size_t lde_size = ldeSize();
    const size_t num_polys = polyCount();

    // Coset LDE per polynomial (NTT^NR) into the flat buffer, which
    // ldeBatch fills completely: it starts uninitialized.
    lde_.reset(static_cast<Fp *>(
        ::operator new(num_polys * lde_size * sizeof(Fp))));
    {
        const KernelScope scope(ctx, KernelClass::Ntt, "commit/lde");
        ldeBatch(coeffs_.data(), n_, num_polys, cfg_.blowup(), cfg_.shift(),
                 lde_.get());
    }
    ctx.record(NttKernel{log2Exact(lde_size), num_polys, /*inverse=*/false,
                         /*coset=*/true, /*bitrevOutput=*/true,
                         PolyLayout::PolyMajor},
               label + ": LDE coset-NTT^NR");
    // The CPU hashes leaves from the columns in place; the trace keeps
    // the layout transform UniZK's transpose buffer performs.
    ctx.record(TransposeKernel{num_polys, lde_size},
               label + ": leaf transpose");

    const uint32_t cap_height =
        std::min<uint32_t>(cfg_.capHeight, log2Exact(lde_size));
    {
        const KernelScope scope(ctx, KernelClass::MerkleTree,
                                "commit/merkle-tree");
        tree_ = std::make_unique<MerkleTree>(leafView(), cap_height);
    }
    ctx.record(MerkleKernel{lde_size, static_cast<uint32_t>(num_polys),
                            cap_height},
               label + ": Merkle tree");
}

size_t
PolynomialBatch::byteSize() const
{
    // The tree keeps every level from the leaves up to the cap.
    const size_t digests = 2 * ldeSize() - (size_t{1} << tree_->capHeight());
    return polyCount() * (n_ + ldeSize()) * sizeof(Fp) +
           digests * sizeof(HashOut);
}

std::vector<Fp2>
PolynomialBatch::evalAllExt(Fp2 z) const
{
    return evalEachExt(coeffs_.data(), n_, polyCount(), z);
}

} // namespace unizk
