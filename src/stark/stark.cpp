#include "stark/stark.h"

#include "common/bits.h"
#include "common/thread_pool.h"
#include "ntt/ntt.h"
#include "obs/obs.h"
#include "poly/polynomial.h"

namespace unizk {

namespace {

/**
 * Combined constraint value at zeta computed from opened values;
 * shared by prover (sanity check) and verifier. Returns the expected
 * t(zeta), i.e. the combination already divided by the vanishing
 * factors.
 */
Fp2
combinedAtZeta(const StarkAir &air, const std::vector<Fp2> &at_z,
               const std::vector<Fp2> &at_wz, Fp2 zeta, size_t n,
               Fp alpha)
{
    const size_t cols = air.numColumns();
    const Fp w = Fp::primitiveRootOfUnity(log2Exact(n));
    const Fp w_last = w.pow(n - 1);
    const Fp2 zeta_n = zeta.pow(n);
    const Fp2 z_h = zeta_n - Fp2::one();
    const Fp2 z_h_inv = z_h.inverse();

    const auto dcols = static_cast<std::ptrdiff_t>(cols);
    std::vector<Fp2> local(at_z.begin(), at_z.begin() + dcols);
    std::vector<Fp2> next(at_wz.begin(), at_wz.begin() + dcols);
    std::vector<Fp2> t_vals(air.numConstraints());
    air.evalTransitionExt(local, next, t_vals);

    Fp2 acc;
    Fp alpha_pow = Fp::one();
    // Transitions vanish on H \ {w^(n-1)}: divisor Z_H(X)/(X - w^last).
    const Fp2 trans_factor = (zeta - Fp2(w_last)) * z_h_inv;
    for (const Fp2 &t : t_vals) {
        acc += t * trans_factor * alpha_pow;
        alpha_pow *= alpha;
    }
    // Boundaries: (C(zeta) - v) * L_row(zeta) / Z_H(zeta)
    //           = (C(zeta) - v) * w^row / (n * (zeta - w^row)).
    const Fp n_fp(static_cast<uint64_t>(n));
    for (const BoundaryConstraint &bc : air.boundaries()) {
        const Fp point = bc.lastRow ? w_last : Fp::one();
        const Fp2 term = (local[bc.column] - Fp2(bc.value)) *
                         ((zeta - Fp2(point)) * n_fp).inverse() * point;
        acc += term * alpha_pow;
        alpha_pow *= alpha;
    }
    return acc;
}

} // namespace

bool
StarkAir::checkTrace(const std::vector<std::vector<Fp>> &columns) const
{
    const size_t cols = numColumns();
    if (columns.size() != cols || columns.empty())
        return false;
    const size_t n = columns[0].size();
    std::vector<Fp> local(cols), next(cols), out(numConstraints());
    for (size_t i = 0; i + 1 < n; ++i) {
        for (size_t c = 0; c < cols; ++c) {
            local[c] = columns[c][i];
            next[c] = columns[c][i + 1];
        }
        evalTransition(local, next, out);
        for (const Fp &v : out)
            if (!v.isZero())
                return false;
    }
    for (const BoundaryConstraint &bc : boundaries()) {
        const size_t row = bc.lastRow ? n - 1 : 0;
        if (columns[bc.column][row] != bc.value)
            return false;
    }
    return true;
}

size_t
StarkProof::byteSize() const
{
    size_t bytes =
        (traceCap.size() + quotientCap.size()) * HashOut::byteSize();
    for (const auto &row : openings)
        bytes += row.size() * 2 * sizeof(uint64_t);
    bytes += fri.byteSize();
    return bytes;
}

StarkProof
starkProve(const StarkAir &air,
           const std::vector<std::vector<Fp>> &columns,
           const FriConfig &cfg, const ProverContext &ctx)
{
    UNIZK_SPAN("stark/prove");
    const size_t cols = air.numColumns();
    unizk_assert(columns.size() == cols, "trace column count mismatch");
    const size_t n = columns[0].size();
    unizk_assert(isPowerOfTwo(n), "trace length must be a power of two");
    unizk_assert(air.checkTrace(columns), "trace violates constraints");
    const Fp w = Fp::primitiveRootOfUnity(log2Exact(n));
    const Fp shift = cfg.shift();

    Challenger challenger;
    size_t hash_mark = 0;
    auto record_challenger = [&](const char *label) {
        if (challenger.permutationCount() > hash_mark) {
            ctx.record(HashKernel{challenger.permutationCount() -
                                  hash_mark},
                       std::string("challenger: ") + label);
            hash_mark = challenger.permutationCount();
        }
    };

    StarkProof proof;
    proof.rows = n;
    proof.columns = cols;

    // ---- Trace commitment. ----
    PolynomialBatch trace =
        PolynomialBatch::fromValues(columns, cfg, ctx, "trace");
    proof.traceCap = trace.cap();
    for (const auto &digest : trace.cap())
        challenger.observe(digest);
    const Fp alpha = challenger.challenge();
    record_challenger("alpha");

    // ---- Quotient on a coset domain covering the constraint degree. --
    const uint32_t q_blowup_bits =
        std::max<uint32_t>(1, ceilLog2(air.constraintDegree()));
    const size_t big = n << q_blowup_bits;
    const size_t num_chunks =
        std::max<size_t>(1, air.constraintDegree() - 1);
    proof.quotientChunks = num_chunks;

    std::vector<Fp> combined(big, Fp::zero());
    {
        UNIZK_SPAN("stark/quotient");
        ScopedKernelTimer ntt_timer(ctx.breakdown, KernelClass::Ntt);
        std::vector<std::vector<Fp>> trace_coeffs(cols);
        for (size_t c = 0; c < cols; ++c)
            trace_coeffs[c] = trace.coefficients(c);
        const auto lde =
            ldeBatchNN(std::move(trace_coeffs),
                       uint32_t{1} << q_blowup_bits, shift);
        ctx.record(NttKernel{log2Exact(big), cols, false, true, false,
                             PolyLayout::PolyMajor},
                   "quotient: trace coset LDEs");

        ScopedKernelTimer poly_timer(ctx.breakdown,
                                     KernelClass::Polynomial);
        const Fp w_big = Fp::primitiveRootOfUnity(log2Exact(big));
        const Fp w_last = w.pow(n - 1);
        const Fp n_fp(static_cast<uint64_t>(n));
        const size_t rot = size_t{1} << q_blowup_bits;

        // Z_H values on the coset (periodic with period `rot`),
        // inverted once.
        const auto z_h_all =
            vanishingOnCoset(n, uint32_t{1} << q_blowup_bits, shift);
        std::vector<Fp> z_h_inv(
            z_h_all.begin(),
            z_h_all.begin() + static_cast<std::ptrdiff_t>(rot));
        batchInverse(z_h_inv);

        // (x - 1) and (x - w_last) inverses for boundary terms.
        std::vector<Fp> xs(big);
        {
            Fp cur = shift;
            for (size_t i = 0; i < big; ++i) {
                xs[i] = cur;
                cur *= w_big;
            }
        }
        std::vector<Fp> inv_first(big), inv_last(big);
        for (size_t i = 0; i < big; ++i) {
            inv_first[i] = (xs[i] - Fp::one()) * n_fp;
            inv_last[i] = (xs[i] - w_last) * n_fp;
        }
        batchInverse(inv_first);
        batchInverse(inv_last);

        const auto bounds = air.boundaries();
        // Each quotient-domain point is independent; scratch buffers
        // live per chunk so worker threads never share state.
        parallelFor(0, big, /*grain=*/128, [&](size_t lo, size_t hi) {
            std::vector<Fp> local(cols), next(cols),
                t_vals(air.numConstraints());
            for (size_t i = lo; i < hi; ++i) {
                for (size_t c = 0; c < cols; ++c) {
                    local[c] = lde[c][i];
                    next[c] = lde[c][(i + rot) % big];
                }
                air.evalTransition(local, next, t_vals);
                Fp acc;
                Fp alpha_pow = Fp::one();
                const Fp trans_factor =
                    (xs[i] - w_last) * z_h_inv[i % rot];
                for (const Fp &t : t_vals) {
                    acc += t * trans_factor * alpha_pow;
                    alpha_pow *= alpha;
                }
                for (const BoundaryConstraint &bc : bounds) {
                    const Fp point = bc.lastRow ? w_last : Fp::one();
                    const Fp inv =
                        bc.lastRow ? inv_last[i] : inv_first[i];
                    acc += (local[bc.column] - bc.value) * inv * point *
                           alpha_pow;
                    alpha_pow *= alpha;
                }
                combined[i] = acc;
            }
        });
    }
    ctx.record(VecOpKernel{big, static_cast<uint32_t>(2 * cols), 1,
                           static_cast<uint32_t>(
                               4 * air.numConstraints() + 8),
                           static_cast<uint32_t>(8 * cols)},
               "quotient: transition + boundary constraints");

    {
        ScopedKernelTimer timer(ctx.breakdown, KernelClass::Ntt);
        UNIZK_SPAN("stark/quotient-intt");
        cosetInttNN(combined, shift);
    }
    ctx.record(NttKernel{log2Exact(big), 1, true, true, false,
                         PolyLayout::PolyMajor},
               "quotient: iNTT");
    for (size_t i = num_chunks * n; i < big; ++i) {
        unizk_assert(combined[i].isZero(),
                     "quotient degree exceeds chunk budget");
    }
    std::vector<std::vector<Fp>> chunks(num_chunks);
    for (size_t k = 0; k < num_chunks; ++k) {
        chunks[k].assign(
            combined.begin() + static_cast<std::ptrdiff_t>(k * n),
            combined.begin() + static_cast<std::ptrdiff_t>((k + 1) * n));
    }
    PolynomialBatch quotient = PolynomialBatch::fromCoefficients(
        std::move(chunks), cfg, ctx, "quotient");
    proof.quotientCap = quotient.cap();
    for (const auto &digest : quotient.cap())
        challenger.observe(digest);

    const Fp2 zeta = challenger.challengeExt();
    record_challenger("zeta");

    // ---- Openings and FRI. ----
    const std::vector<Fp2> points{zeta, zeta * w};
    const std::vector<const PolynomialBatch *> batches{&trace, &quotient};
    proof.openings.resize(points.size());
    {
        ScopedKernelTimer timer(ctx.breakdown, KernelClass::Polynomial);
        UNIZK_SPAN("stark/openings");
        for (size_t j = 0; j < points.size(); ++j) {
            for (const auto *batch : batches)
                for (const Fp2 &v : batch->evalAllExt(points[j]))
                    proof.openings[j].push_back(v);
        }
    }
    ctx.record(VecOpKernel{n, static_cast<uint32_t>(cols + num_chunks), 1,
                           4, 0},
               "openings: evaluate at zeta, w*zeta");
    for (const auto &row : proof.openings) {
        for (const Fp2 &v : row) {
            challenger.observe(v.limb(0));
            challenger.observe(v.limb(1));
        }
    }
    record_challenger("openings");

    // Sanity check against the verifier's identity.
    {
        const Fp2 expected = combinedAtZeta(
            air, proof.openings[0], proof.openings[1], zeta, n, alpha);
        const Fp2 zeta_n = zeta.pow(n);
        Fp2 t_at_zeta;
        Fp2 zpow = Fp2::one();
        for (size_t k = 0; k < num_chunks; ++k) {
            t_at_zeta += proof.openings[0][cols + k] * zpow;
            zpow *= zeta_n;
        }
        unizk_assert(expected == t_at_zeta,
                     "prover-side STARK identity failed");
    }

    proof.fri = friProve(batches, points, proof.openings, challenger, cfg,
                         ctx);
    record_challenger("fri");
    return proof;
}

bool
starkVerify(const StarkAir &air, const StarkProof &proof,
            const FriConfig &cfg)
{
    const size_t n = proof.rows;
    const size_t cols = air.numColumns();
    // Rejects row counts whose FRI domain has no root of unity.
    if (!friDomainFits(n, cfg) || proof.columns != cols)
        return false;
    const size_t num_chunks =
        std::max<size_t>(1, air.constraintDegree() - 1);
    if (proof.quotientChunks != num_chunks)
        return false;
    if (proof.openings.size() != 2)
        return false;
    for (const auto &row : proof.openings)
        if (row.size() != cols + num_chunks)
            return false;

    const Fp w = Fp::primitiveRootOfUnity(log2Exact(n));

    Challenger challenger;
    for (const auto &digest : proof.traceCap)
        challenger.observe(digest);
    const Fp alpha = challenger.challenge();
    for (const auto &digest : proof.quotientCap)
        challenger.observe(digest);
    const Fp2 zeta = challenger.challengeExt();
    for (const auto &row : proof.openings) {
        for (const Fp2 &v : row) {
            challenger.observe(v.limb(0));
            challenger.observe(v.limb(1));
        }
    }

    const Fp2 expected = combinedAtZeta(air, proof.openings[0],
                                        proof.openings[1], zeta, n, alpha);
    const Fp2 zeta_n = zeta.pow(n);
    Fp2 t_at_zeta;
    {
        Fp2 zpow = Fp2::one();
        for (size_t k = 0; k < num_chunks; ++k) {
            t_at_zeta += proof.openings[0][cols + k] * zpow;
            zpow *= zeta_n;
        }
    }
    if (expected != t_at_zeta)
        return false;

    const std::vector<Fp2> points{zeta, zeta * w};
    const std::vector<FriBatchInfo> batches{{proof.traceCap, cols},
                                            {proof.quotientCap,
                                             num_chunks}};
    return friVerify(batches, n, points, proof.openings, proof.fri,
                     challenger, cfg);
}

} // namespace unizk
