#include "fri/polynomial_batch.h"

#include <memory>

#include "ntt/ntt.h"

namespace unizk {

PolynomialBatch
PolynomialBatch::fromValues(std::vector<std::vector<Fp>> values,
                            const FriConfig &cfg, const ProverContext &ctx,
                            const std::string &label)
{
    unizk_assert(!values.empty(), "empty polynomial batch");
    const size_t n = values[0].size();
    {
        const KernelScope scope(ctx, KernelClass::Ntt, "commit/values-intt");
        inttBatchNN(values);
    }
    ctx.record(NttKernel{log2Exact(n), values.size(), /*inverse=*/true,
                         /*coset=*/false, /*bitrevOutput=*/false,
                         PolyLayout::PolyMajor},
               label + ": iNTT^NN");
    return PolynomialBatch(std::move(values), cfg, ctx, label);
}

PolynomialBatch
PolynomialBatch::fromCoefficients(const std::vector<Fp> &coeffs, size_t n,
                                  size_t count, const FriConfig &cfg,
                                  const ProverContext &ctx,
                                  const std::string &label)
{
    std::vector<std::vector<Fp>> chunks(count);
    for (size_t k = 0; k < count; ++k)
        chunks[k].assign(
            coeffs.begin() + static_cast<std::ptrdiff_t>(k * n),
            coeffs.begin() + static_cast<std::ptrdiff_t>((k + 1) * n));
    return PolynomialBatch(std::move(chunks), cfg, ctx, label);
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

    // Coset LDE per polynomial (NTT^NR) into the flat buffer, which
    // ldeBatch fills completely: it starts uninitialized.
    lde_.reset(static_cast<Fp *>(
        ::operator new(num_polys * lde_size * sizeof(Fp))));
    {
        const KernelScope scope(ctx, KernelClass::Ntt, "commit/lde");
        ldeBatch(coeffs_, cfg_.blowup(), cfg_.shift(), lde_.get());
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
    return evalEachExt(coeffs_, z);
}

} // namespace unizk
