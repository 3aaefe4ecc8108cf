#include "plonk/plonk.h"

#include "common/bits.h"
#include "common/thread_pool.h"
#include "ntt/ntt.h"
#include "obs/obs.h"
#include "poly/polynomial.h"

namespace unizk {

namespace {

/** Quotient-computation blowup: covers the degree-4n quotient. */
constexpr uint32_t quotient_blowup_bits = 2;

/** The flattened number of committed polynomials. */
size_t
flatPolyCount(size_t repetitions)
{
    return 8 + 3 * repetitions + repetitions + plonkQuotientChunks;
}

/** Flat index of the first wire polynomial. */
constexpr size_t wiresOffset = 8;

size_t
zOffset(size_t repetitions)
{
    return wiresOffset + 3 * repetitions;
}

size_t
quotientOffset(size_t repetitions)
{
    return zOffset(repetitions) + repetitions;
}

/**
 * Evaluate the combined Plonk constraint at zeta from opened values.
 * Shared between the verifier and (as a sanity check) the prover.
 * @return the expected t(zeta) * Z_H(zeta).
 */
Fp2
combinedConstraintAtZeta(const std::vector<Fp2> &at_z,
                         const std::vector<Fp2> &at_wz, Fp2 zeta,
                         size_t n, size_t repetitions, Fp beta, Fp gamma,
                         Fp alpha, const std::vector<size_t> &public_rows,
                         const std::vector<std::vector<Fp>> &publics)
{
    const Fp2 q_l = at_z[0], q_r = at_z[1], q_o = at_z[2], q_m = at_z[3],
              q_c = at_z[4];
    const Fp2 sigma[3] = {at_z[5], at_z[6], at_z[7]};

    // L_1(zeta) = (zeta^n - 1) / (n * (zeta - 1)).
    const Fp2 zeta_n = zeta.pow(n);
    const Fp2 z_h = zeta_n - Fp2::one();
    const Fp2 l1 =
        z_h * ((zeta - Fp2::one()) * Fp(static_cast<uint64_t>(n)))
                  .inverse();

    Fp2 acc;
    Fp alpha_pow = Fp::one();
    for (size_t r = 0; r < repetitions; ++r) {
        const Fp2 a = at_z[wiresOffset + 3 * r + 0];
        const Fp2 b = at_z[wiresOffset + 3 * r + 1];
        const Fp2 c = at_z[wiresOffset + 3 * r + 2];
        const Fp2 z = at_z[zOffset(repetitions) + r];
        const Fp2 z_w = at_wz[zOffset(repetitions) + r];

        Fp2 gate = q_l * a + q_r * b + q_o * c + q_m * a * b + q_c;
        // Public-input polynomial: PI_r(zeta) =
        //   sum_k -pub_{r,k} * L_{row_k}(zeta).
        const Fp w_n = Fp::primitiveRootOfUnity(log2Exact(n));
        for (size_t k = 0; k < public_rows.size(); ++k) {
            const Fp point = w_n.pow(public_rows[k]);
            const Fp2 l_row =
                z_h * ((zeta - Fp2(point)) *
                       Fp(static_cast<uint64_t>(n)))
                          .inverse() *
                point;
            gate -= l_row * publics[r][k];
        }
        acc += gate * alpha_pow;
        alpha_pow *= alpha;

        Fp2 f = Fp2::one(), g = Fp2::one();
        const Fp2 wires[3] = {a, b, c};
        for (size_t j = 0; j < 3; ++j) {
            f *= wires[j] + zeta * (beta * plonkCosetShift(j)) +
                 Fp2(gamma);
            g *= wires[j] + sigma[j] * beta + Fp2(gamma);
        }
        acc += (z_w * g - z * f) * alpha_pow;
        alpha_pow *= alpha;

        acc += l1 * (z - Fp2::one()) * alpha_pow;
        alpha_pow *= alpha;
    }
    return acc;
}

} // namespace

PlonkProvingKey
plonkSetup(const Circuit &circuit, const FriConfig &cfg,
           const ProverContext &ctx)
{
    const size_t n = circuit.rows();
    const Fp w = Fp::primitiveRootOfUnity(log2Exact(n));

    PlonkProvingKey key;
    key.rows = n;

    // Encode sigma as field values: slot (col, row) -> k_col * w^row.
    std::vector<Fp> w_pows(n);
    Fp cur = Fp::one();
    for (size_t i = 0; i < n; ++i) {
        w_pows[i] = cur;
        cur *= w;
    }
    const auto &perm = circuit.permutation();
    for (size_t col = 0; col < 3; ++col) {
        key.sigmaValues[col].resize(n);
        for (size_t row = 0; row < n; ++row) {
            const size_t target = perm[col * n + row];
            const size_t t_col = target / n;
            const size_t t_row = target % n;
            key.sigmaValues[col][row] =
                plonkCosetShift(t_col) * w_pows[t_row];
        }
    }

    std::vector<std::vector<Fp>> constants{
        circuit.selQL(), circuit.selQR(), circuit.selQO(), circuit.selQM(),
        circuit.selQC(), key.sigmaValues[0], key.sigmaValues[1],
        key.sigmaValues[2]};
    key.constants = std::make_unique<PolynomialBatch>(
        PolynomialBatch::fromValues(std::move(constants), cfg, ctx,
                                    "constants"));
    return key;
}

size_t
PlonkProof::byteSize() const
{
    size_t bytes = (wiresCap.size() + zCap.size() + quotientCap.size()) *
                   HashOut::byteSize();
    for (const auto &row : publicInputs)
        bytes += row.size() * sizeof(uint64_t);
    for (const auto &row : openings)
        bytes += row.size() * 2 * sizeof(uint64_t);
    bytes += fri.byteSize();
    return bytes;
}

PlonkProof
plonkProve(const Circuit &circuit, const PlonkProvingKey &key,
           const std::vector<std::vector<Fp>> &inputs, const FriConfig &cfg,
           const ProverContext &ctx)
{
    UNIZK_SPAN("plonk/prove");
    const size_t n = circuit.rows();
    const size_t reps = inputs.size();
    unizk_assert(reps > 0, "at least one witness repetition required");
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

    PlonkProof proof;
    proof.rows = n;
    proof.repetitions = reps;

    // ---- Wires commitment (Fig. 7 "Wires Commitment"). ----
    for (const auto &digest : key.constants->cap())
        challenger.observe(digest);

    std::vector<std::vector<Fp>> wire_values;
    wire_values.reserve(3 * reps);
    std::vector<std::array<std::vector<Fp>, 3>> per_rep_wires(reps);
    for (size_t r = 0; r < reps; ++r) {
        per_rep_wires[r] = circuit.fillWitness(inputs[r]);
        proof.publicInputs.push_back(
            circuit.publicValues(per_rep_wires[r]));
        for (size_t col = 0; col < 3; ++col)
            wire_values.push_back(per_rep_wires[r][col]);
    }
    // Public inputs are part of the statement: bind them into the
    // transcript before any challenge is drawn.
    for (const auto &row : proof.publicInputs)
        challenger.observe(row);
    PolynomialBatch wires = PolynomialBatch::fromValues(
        std::move(wire_values), cfg, ctx, "wires");
    proof.wiresCap = wires.cap();
    for (const auto &digest : wires.cap())
        challenger.observe(digest);

    const Fp beta = challenger.challenge();
    const Fp gamma = challenger.challenge();
    record_challenger("beta/gamma");

    // ---- Permutation argument Z polynomials (copy constraints). ----
    std::vector<Fp> w_pows(n);
    {
        Fp cur = Fp::one();
        for (size_t i = 0; i < n; ++i) {
            w_pows[i] = cur;
            cur *= w;
        }
    }
    std::vector<std::vector<Fp>> z_values(reps);
    {
        // Timed once around the region: worker threads must not touch
        // the shared breakdown.
        ScopedKernelTimer timer(ctx.breakdown, KernelClass::Polynomial);
        UNIZK_SPAN("plonk/permutation-z");
        parallelFor(0, reps, /*grain=*/1, [&](size_t r_lo, size_t r_hi) {
            for (size_t r = r_lo; r < r_hi; ++r) {
                std::vector<Fp> f(n, Fp::one()), g(n, Fp::one());
                for (size_t col = 0; col < 3; ++col) {
                    const Fp k = plonkCosetShift(col);
                    const auto &wcol = per_rep_wires[r][col];
                    const auto &scol = key.sigmaValues[col];
                    for (size_t i = 0; i < n; ++i) {
                        f[i] *= wcol[i] + beta * k * w_pows[i] + gamma;
                        g[i] *= wcol[i] + beta * scol[i] + gamma;
                    }
                }
                std::vector<Fp> q = g;
                batchInverse(q);
                for (size_t i = 0; i < n; ++i)
                    q[i] *= f[i];
                // Quotient-chunk partial products (paper Eq. 1-2 /
                // Fig. 6).
                const std::vector<Fp> prefix =
                    partialProductsGrouped(q, 32);
                unizk_assert(prefix[n - 1] == Fp::one(),
                             "permutation product must telescope to 1");
                std::vector<Fp> z(n);
                z[0] = Fp::one();
                for (size_t i = 1; i < n; ++i)
                    z[i] = prefix[i - 1];
                z_values[r] = std::move(z);
            }
        });
    }
    ctx.record(VecOpKernel{n, static_cast<uint32_t>(6 * reps),
                           static_cast<uint32_t>(2 * reps), 12, 0},
               "copy constraints: f,g");
    ctx.record(PartialProductKernel{n * reps, 8}, "quotient chunk PP");

    PolynomialBatch z_batch = PolynomialBatch::fromValues(
        std::move(z_values), cfg, ctx, "Z");
    proof.zCap = z_batch.cap();
    for (const auto &digest : z_batch.cap())
        challenger.observe(digest);

    const Fp alpha = challenger.challenge();
    record_challenger("alpha");

    // ---- Quotient polynomial on the 4n coset domain. ----
    const size_t big = n << quotient_blowup_bits;
    std::vector<Fp> combined(big, Fp::zero());
    {
        UNIZK_SPAN("plonk/quotient");
        ScopedKernelTimer ntt_timer(ctx.breakdown, KernelClass::Ntt);
        // LDEs of everything we need, natural order. All 8 + 4*reps
        // source polynomials are independent: gather them into one
        // batch so the engine picks the parallel axis and builds the
        // twiddle table once.
        const size_t num_ldes = 8 + 4 * reps;
        std::vector<std::vector<Fp>> batch(num_ldes);
        for (size_t t = 0; t < 5; ++t)
            batch[t] = key.constants->coefficients(t);
        for (size_t t = 5; t < 8; ++t)
            batch[t] = key.constants->coefficients(t);
        for (size_t t = 0; t < 3 * reps; ++t)
            batch[8 + t] = wires.coefficients(t);
        for (size_t t = 0; t < reps; ++t)
            batch[8 + 3 * reps + t] = z_batch.coefficients(t);
        auto ldes = ldeBatchNN(std::move(batch),
                               uint32_t{1} << quotient_blowup_bits, shift);
        std::vector<std::vector<Fp>> sel_lde(5), sig_lde(3);
        std::vector<std::vector<Fp>> wire_lde(3 * reps), z_lde(reps);
        for (size_t t = 0; t < 5; ++t)
            sel_lde[t] = std::move(ldes[t]);
        for (size_t t = 0; t < 3; ++t)
            sig_lde[t] = std::move(ldes[5 + t]);
        for (size_t t = 0; t < 3 * reps; ++t)
            wire_lde[t] = std::move(ldes[8 + t]);
        for (size_t t = 0; t < reps; ++t)
            z_lde[t] = std::move(ldes[8 + 3 * reps + t]);
        ctx.record(NttKernel{log2Exact(big),
                             8 + 4 * reps, false, true, false,
                             PolyLayout::PolyMajor},
                   "quotient: coset LDEs");

        ScopedKernelTimer poly_timer(ctx.breakdown,
                                     KernelClass::Polynomial);
        // Domain points and L_1 values.
        const Fp w_big = Fp::primitiveRootOfUnity(log2Exact(big));
        std::vector<Fp> xs(big);
        {
            Fp cur = shift;
            for (size_t i = 0; i < big; ++i) {
                xs[i] = cur;
                cur *= w_big;
            }
        }
        const std::vector<Fp> z_h =
            vanishingOnCoset(n, uint32_t{1} << quotient_blowup_bits, shift);
        std::vector<Fp> l1(big);
        for (size_t i = 0; i < big; ++i)
            l1[i] = (xs[i] - Fp::one()) * Fp(static_cast<uint64_t>(n));
        batchInverse(l1);
        for (size_t i = 0; i < big; ++i)
            l1[i] *= z_h[i];

        // Lagrange values for the public-input rows over the coset:
        // L_row(x) = Z_H(x) * w^row / (n * (x - w^row)).
        const auto &pub_rows = circuit.publicRows();
        std::vector<std::vector<Fp>> l_rows(pub_rows.size());
        for (size_t k = 0; k < pub_rows.size(); ++k) {
            const Fp point = w.pow(pub_rows[k]);
            std::vector<Fp> denom(big);
            for (size_t i = 0; i < big; ++i)
                denom[i] =
                    (xs[i] - point) * Fp(static_cast<uint64_t>(n));
            batchInverse(denom);
            l_rows[k].resize(big);
            for (size_t i = 0; i < big; ++i)
                l_rows[k][i] = z_h[i] * point * denom[i];
        }

        const size_t rot = size_t{1} << quotient_blowup_bits;
        // Alpha powers per repetition, precomputed so the evaluation
        // can run index-major: each point i is independent, and the
        // per-point accumulation keeps the original r-ascending order,
        // so the result is bitwise identical to the serial rep-major
        // loop.
        std::vector<std::array<Fp, 3>> rep_alpha(reps);
        {
            Fp alpha_pow = Fp::one();
            for (size_t r = 0; r < reps; ++r) {
                rep_alpha[r][0] = alpha_pow;
                rep_alpha[r][1] = alpha_pow * alpha;
                rep_alpha[r][2] = rep_alpha[r][1] * alpha;
                alpha_pow = rep_alpha[r][2] * alpha;
            }
        }
        parallelFor(0, big, /*grain=*/256, [&](size_t lo, size_t hi) {
            for (size_t i = lo; i < hi; ++i) {
                Fp acc;
                for (size_t r = 0; r < reps; ++r) {
                    const auto &a = wire_lde[3 * r + 0];
                    const auto &b = wire_lde[3 * r + 1];
                    const auto &c = wire_lde[3 * r + 2];
                    const auto &z = z_lde[r];
                    Fp gate = sel_lde[0][i] * a[i] +
                              sel_lde[1][i] * b[i] +
                              sel_lde[2][i] * c[i] +
                              sel_lde[3][i] * a[i] * b[i] +
                              sel_lde[4][i];
                    for (size_t k = 0; k < pub_rows.size(); ++k)
                        gate -= l_rows[k][i] * proof.publicInputs[r][k];
                    Fp f = Fp::one(), g = Fp::one();
                    const Fp wv[3] = {a[i], b[i], c[i]};
                    for (size_t j = 0; j < 3; ++j) {
                        f *= wv[j] + beta * plonkCosetShift(j) * xs[i] +
                             gamma;
                        g *= wv[j] + beta * sig_lde[j][i] + gamma;
                    }
                    const Fp z_w = z[(i + rot) % big];
                    const Fp perm = z_w * g - z[i] * f;
                    const Fp l1_term = l1[i] * (z[i] - Fp::one());
                    acc += gate * rep_alpha[r][0] +
                           perm * rep_alpha[r][1] +
                           l1_term * rep_alpha[r][2];
                }
                combined[i] = acc;
            }
        });

        // Divide by Z_H (nonzero on the coset; only `blowup` distinct
        // values, invert once each).
        std::vector<Fp> z_h_inv(
            z_h.begin(),
            z_h.begin() + static_cast<std::ptrdiff_t>(
                              size_t{1} << quotient_blowup_bits));
        batchInverse(z_h_inv);
        parallelFor(0, big, /*grain=*/1024, [&](size_t lo, size_t hi) {
            for (size_t i = lo; i < hi; ++i)
                combined[i] *= z_h_inv[i % z_h_inv.size()];
        });
    }
    ctx.record(VecOpKernel{big, static_cast<uint32_t>(8 + 4 * reps), 1,
                           static_cast<uint32_t>(30 * reps),
                           /*randomAccessGranularity=*/
                           static_cast<uint32_t>(8 * 3)},
               "quotient: gate + permutation constraints");

    {
        ScopedKernelTimer timer(ctx.breakdown, KernelClass::Ntt);
        UNIZK_SPAN("plonk/quotient-intt");
        cosetInttNN(combined, shift);
    }
    ctx.record(NttKernel{log2Exact(big), 1, true, true, false,
                         PolyLayout::PolyMajor},
               "quotient: iNTT");
    // Degree must be below 4n by construction.
    std::vector<std::vector<Fp>> chunks(plonkQuotientChunks);
    for (size_t k = 0; k < plonkQuotientChunks; ++k) {
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

    // ---- Openings at zeta and w*zeta. ----
    const std::vector<Fp2> points{zeta, zeta * w};
    const std::vector<const PolynomialBatch *> batches{
        key.constants.get(), &wires, &z_batch, &quotient};
    proof.openings.resize(points.size());
    {
        ScopedKernelTimer timer(ctx.breakdown, KernelClass::Polynomial);
        UNIZK_SPAN("plonk/openings");
        for (size_t j = 0; j < points.size(); ++j) {
            for (const auto *batch : batches) {
                for (const Fp2 &v : batch->evalAllExt(points[j]))
                    proof.openings[j].push_back(v);
            }
        }
    }
    ctx.record(VecOpKernel{n, static_cast<uint32_t>(
                                  flatPolyCount(reps)),
                           1, 4, 0},
               "openings: evaluate at zeta, w*zeta");
    for (const auto &row : proof.openings) {
        for (const Fp2 &v : row) {
            challenger.observe(v.limb(0));
            challenger.observe(v.limb(1));
        }
    }
    record_challenger("openings");

    // Sanity: the opened values must satisfy the quotient identity.
    {
        const Fp2 expected = combinedConstraintAtZeta(
            proof.openings[0], proof.openings[1], zeta, n, reps, beta,
            gamma, alpha, circuit.publicRows(), proof.publicInputs);
        Fp2 t_at_zeta;
        const Fp2 zeta_n = zeta.pow(n);
        Fp2 zpow = Fp2::one();
        for (size_t k = 0; k < plonkQuotientChunks; ++k) {
            t_at_zeta +=
                proof.openings[0][quotientOffset(reps) + k] * zpow;
            zpow *= zeta_n;
        }
        unizk_assert(expected == t_at_zeta * (zeta_n - Fp2::one()),
                     "prover-side quotient identity failed");
    }

    proof.fri = friProve(batches, points, proof.openings, challenger, cfg,
                         ctx);
    record_challenger("fri");
    return proof;
}

bool
plonkVerify(const MerkleCap &constants_cap, const PlonkProof &proof,
            const FriConfig &cfg, const std::vector<size_t> &public_rows)
{
    const size_t n = proof.rows;
    const size_t reps = proof.repetitions;
    // Rejects row counts whose FRI domain has no root of unity.
    if (!friDomainFits(n, cfg) || reps == 0)
        return false;
    const size_t num_polys = flatPolyCount(reps);
    if (proof.openings.size() != 2)
        return false;
    for (const auto &row : proof.openings)
        if (row.size() != num_polys)
            return false;

    const Fp w = Fp::primitiveRootOfUnity(log2Exact(n));

    if (proof.publicInputs.size() != reps)
        return false;
    for (const auto &row : proof.publicInputs)
        if (row.size() != public_rows.size())
            return false;

    Challenger challenger;
    for (const auto &digest : constants_cap)
        challenger.observe(digest);
    for (const auto &row : proof.publicInputs)
        challenger.observe(row);
    for (const auto &digest : proof.wiresCap)
        challenger.observe(digest);
    const Fp beta = challenger.challenge();
    const Fp gamma = challenger.challenge();
    for (const auto &digest : proof.zCap)
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

    // Quotient identity at zeta.
    const Fp2 expected = combinedConstraintAtZeta(
        proof.openings[0], proof.openings[1], zeta, n, reps, beta, gamma,
        alpha, public_rows, proof.publicInputs);
    const Fp2 zeta_n = zeta.pow(n);
    Fp2 t_at_zeta;
    {
        Fp2 zpow = Fp2::one();
        for (size_t k = 0; k < plonkQuotientChunks; ++k) {
            t_at_zeta +=
                proof.openings[0][quotientOffset(reps) + k] * zpow;
            zpow *= zeta_n;
        }
    }
    if (expected != t_at_zeta * (zeta_n - Fp2::one()))
        return false;

    // FRI certifies the openings.
    const std::vector<Fp2> points{zeta, zeta * w};
    const std::vector<FriBatchInfo> batches{
        {constants_cap, 8},
        {proof.wiresCap, 3 * reps},
        {proof.zCap, reps},
        {proof.quotientCap, plonkQuotientChunks}};
    return friVerify(batches, n, points, proof.openings, proof.fri,
                     challenger, cfg);
}

} // namespace unizk
