#include "stark/stark.h"

#include <atomic>

#include "common/bits.h"
#include "common/thread_pool.h"
#include "ntt/ntt.h"
#include "obs/obs.h"
#include "poly/polynomial.h"

namespace unizk {

namespace {

/**
 * The quotient identity at zeta on opened values: the constraints
 * combined and divided by their vanishing factors equal t(zeta), from
 * the @p chunks quotient openings after the columns. Shared by prover
 * (sanity check) and verifier.
 */
bool
quotientIdentityHolds(const StarkAir &air, const std::vector<Fp2> &at_z,
                      const std::vector<Fp2> &at_wz, Fp2 zeta, size_t n,
                      Fp alpha, size_t chunks)
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
    return acc == recombineChunks(&at_z[cols], chunks, zeta, n);
}

} // namespace

bool
StarkAir::checkTrace(const std::vector<std::vector<Fp>> &columns) const
{
    const size_t cols = numColumns();
    if (columns.size() != cols || columns.empty())
        return false;
    const size_t n = columns[0].size();
    // Transitions on rows [0, n - 1), one chunk of rows per task, each
    // chunk with its own row buffers; chunks skip their rows once one
    // has failed.
    const size_t transitions = n == 0 ? 0 : n - 1;
    std::atomic<bool> ok{true};
    parallelFor(0, transitions, /*grain=*/1024, [&](size_t lo, size_t hi) {
        if (!ok.load())
            return;
        std::vector<Fp> local(cols), next(cols), out(numConstraints());
        for (size_t i = lo; i < hi; ++i) {
            for (size_t c = 0; c < cols; ++c) {
                local[c] = columns[c][i];
                next[c] = columns[c][i + 1];
            }
            evalTransition(local, next, out);
            for (const Fp &v : out)
                if (!v.isZero()) {
                    ok.store(false);
                    return;
                }
        }
    });
    if (!ok.load())
        return false;
    for (const BoundaryConstraint &bc : boundaries()) {
        const size_t row = bc.lastRow ? n - 1 : 0;
        if (columns[bc.column][row] != bc.value)
            return false;
    }
    return true;
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

    StarkProof proof;
    proof.rows = n;
    proof.columns = cols;

    // ---- Trace commitment. ----
    std::vector<Fp> trace_values;
    trace_values.reserve(cols * n);
    for (const auto &col : columns)
        trace_values.insert(trace_values.end(), col.begin(), col.end());
    PolynomialBatch trace = PolynomialBatch::fromValues(
        std::move(trace_values), n, cols, cfg, ctx, "trace");
    proof.traceCap = trace.cap();
    for (const auto &digest : trace.cap())
        challenger.observe(digest);
    const Fp alpha = challenger.challenge();
    recordChallenger(challenger, ctx, "alpha");

    // ---- Quotient on a coset domain covering the constraint degree. --
    const uint32_t q_blowup_bits =
        std::max<uint32_t>(1, ceilLog2(air.constraintDegree()));
    const size_t big = n << q_blowup_bits;
    const size_t num_chunks =
        std::max<size_t>(1, air.constraintDegree() - 1);
    proof.quotientChunks = num_chunks;

    // Stored bit-reversed, the quotient domain is the first `big` values
    // of every committed trace LDE column (DESIGN.md §6.11).
    unizk_assert(q_blowup_bits <= cfg.blowupBits,
                 "the AIR's quotient blowup exceeds the commitment's");
    std::vector<Fp> combined(big);
    {
        const KernelScope scope(ctx, KernelClass::Polynomial,
                                "stark/quotient");
        // UniZK computes these coset LDEs, so the trace keeps them; the
        // CPU reads the committed prefix instead.
        ctx.record(NttKernel{log2Exact(big), cols, false, true, false,
                             PolyLayout::PolyMajor},
                   "quotient: trace coset LDEs");
        starkQuotientValues(air, trace.leafView(), n, q_blowup_bits,
                            shift, alpha, combined.data());
    }
    ctx.record(VecOpKernel{big, static_cast<uint32_t>(2 * cols), 1,
                           static_cast<uint32_t>(
                               4 * air.numConstraints() + 8),
                           static_cast<uint32_t>(8 * cols)},
               "quotient: transition + boundary constraints");

    {
        const KernelScope scope(ctx, KernelClass::Ntt, "stark/quotient-intt");
        cosetInttRN(combined, shift); // bit-reversed values in
    }
    ctx.record(NttKernel{log2Exact(big), 1, true, true, false,
                         PolyLayout::PolyMajor},
               "quotient: iNTT");
    for (size_t i = num_chunks * n; i < big; ++i) {
        unizk_assert(combined[i].isZero(),
                     "quotient degree exceeds chunk budget");
    }
    PolynomialBatch quotient = PolynomialBatch::fromCoefficients(
        std::move(combined), n, num_chunks, cfg, ctx, "quotient");
    proof.quotientCap = quotient.cap();
    for (const auto &digest : quotient.cap())
        challenger.observe(digest);

    const Fp2 zeta = challenger.challengeExt();
    recordChallenger(challenger, ctx, "zeta");

    // ---- Openings at zeta and w*zeta, proven by FRI. ----
    FriOpenedProof opened = friProve({&trace, &quotient}, {zeta, zeta * w},
                                     challenger, cfg, ctx, "stark/openings");
    proof.openings = std::move(opened.openings);
    proof.fri = std::move(opened.proof);
    unizk_assert(quotientIdentityHolds(air, proof.openings[0],
                                       proof.openings[1], zeta, n, alpha,
                                       num_chunks),
                 "prover-side STARK identity failed");
    return proof;
}

void
starkQuotientValues(const StarkAir &air, const LeafView &trace, size_t n,
                    uint32_t q_bits, Fp shift, Fp alpha, Fp *out)
{
    const size_t cols = air.numColumns();
    const size_t big = n << q_bits;
    const uint32_t log_big = log2Exact(big);
    const size_t rot = size_t{1} << q_bits;
    const Fp w_last = Fp::primitiveRootOfUnity(log2Exact(n)).pow(n - 1);
    const Fp n_fp(static_cast<uint64_t>(n));

    // Z_H per aligned block of n stored points, inverted once.
    std::vector<Fp> z_h_inv = vanishingOnCoset(n, uint32_t{1} << q_bits,
                                               shift);
    batchInverse(z_h_inv);

    // (x - 1) and (x - w_last) inverses for boundary terms.
    const std::vector<Fp> xs = bitReversedCosetPoints(big, shift);
    std::vector<Fp> inv_first(big), inv_last(big);
    for (size_t i = 0; i < big; ++i) {
        inv_first[i] = (xs[i] - Fp::one()) * n_fp;
        inv_last[i] = (xs[i] - w_last) * n_fp;
    }
    batchInverse(inv_first);
    batchInverse(inv_last);

    // The combination's alpha powers are the same at every point:
    // alpha^t for transition t, then alpha^(T + b) * w^row(b) for
    // boundary b, computed once. Per point the transitions are one
    // lazily reduced dot, scaled once by their divisor factor.
    const auto bounds = air.boundaries();
    const size_t num_trans = air.numConstraints();
    std::vector<Fp> trans_alpha(num_trans);
    std::vector<Fp> bound_coef(bounds.size());
    {
        Fp alpha_pow = Fp::one();
        for (Fp &a : trans_alpha) {
            a = alpha_pow;
            alpha_pow *= alpha;
        }
        for (size_t b = 0; b < bounds.size(); ++b) {
            bound_coef[b] =
                (bounds[b].lastRow ? w_last : Fp::one()) * alpha_pow;
            alpha_pow *= alpha;
        }
    }
    // Each quotient-domain point is independent; scratch buffers live
    // per chunk so worker threads never share state.
    parallelFor(0, big, /*grain=*/128, [&](size_t lo, size_t hi) {
        std::vector<Fp> local(cols), next(cols), t_vals(num_trans);
        for (size_t i = lo; i < hi; ++i) {
            const size_t i_next = rotateBitReversed(i, rot, log_big);
            for (size_t c = 0; c < cols; ++c) {
                local[c] = trace.at(i, c);
                next[c] = trace.at(i_next, c);
            }
            air.evalTransition(local, next, t_vals);
            const Fp trans_factor = (xs[i] - w_last) * z_h_inv[i / n];
            Fp acc = trans_factor *
                     fpDot(trans_alpha.data(), t_vals.data(), num_trans);
            for (size_t b = 0; b < bounds.size(); ++b) {
                const BoundaryConstraint &bc = bounds[b];
                const Fp inv = bc.lastRow ? inv_last[i] : inv_first[i];
                acc += (local[bc.column] - bc.value) * inv * bound_coef[b];
            }
            out[i] = acc;
        }
    });
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

    Challenger challenger;
    for (const auto &digest : proof.traceCap)
        challenger.observe(digest);
    const Fp alpha = challenger.challenge();
    for (const auto &digest : proof.quotientCap)
        challenger.observe(digest);
    const Fp2 zeta = challenger.challengeExt();

    // FRI certifies the openings (and their shape); only then does the
    // quotient identity read them.
    const Fp w = Fp::primitiveRootOfUnity(log2Exact(n));
    const std::vector<FriBatchInfo> batches{{proof.traceCap, cols},
                                            {proof.quotientCap,
                                             num_chunks}};
    return friVerify(batches, n, {zeta, zeta * w}, proof.openings,
                     proof.fri, challenger, cfg) &&
           quotientIdentityHolds(air, proof.openings[0], proof.openings[1],
                                 zeta, n, alpha, num_chunks);
}

} // namespace unizk
