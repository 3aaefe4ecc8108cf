#include "plonk/plonk.h"

#include "common/bits.h"
#include "common/thread_pool.h"
#include "ntt/ntt.h"
#include "obs/obs.h"
#include "plonk/quotient_kernel.h"
#include "poly/polynomial.h"

namespace unizk {

namespace {

/** Quotient-computation blowup: covers the degree-4n quotient. */
constexpr uint32_t quotient_blowup_bits = 2;

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
 * The quotient identity at zeta on opened values: the combined Plonk
 * constraint equals t(zeta) * Z_H(zeta). Shared between the verifier
 * and (as a sanity check) the prover.
 */
bool
quotientIdentityHolds(const std::vector<Fp2> &at_z,
                      const std::vector<Fp2> &at_wz, Fp2 zeta, size_t n,
                      size_t repetitions, Fp beta, Fp gamma, Fp alpha,
                      const std::vector<size_t> &public_rows,
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
    return acc == recombineChunks(&at_z[quotientOffset(repetitions)],
                                  plonkQuotientChunks, zeta, n) *
                      z_h;
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

    const std::vector<Fp> *columns[] = {
        &circuit.selQL(),    &circuit.selQR(),    &circuit.selQO(),
        &circuit.selQM(),    &circuit.selQC(),    &key.sigmaValues[0],
        &key.sigmaValues[1], &key.sigmaValues[2]};
    std::vector<Fp> constants;
    constants.reserve(8 * n);
    for (const auto *col : columns)
        constants.insert(constants.end(), col->begin(), col->end());
    key.constants = std::make_unique<PolynomialBatch>(
        PolynomialBatch::fromValues(std::move(constants), n, 8, cfg, ctx,
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

    PlonkProof proof;
    proof.rows = n;
    proof.repetitions = reps;

    // ---- Wires commitment (Fig. 7 "Wires Commitment"). ----
    for (const auto &digest : key.constants->cap())
        challenger.observe(digest);

    // Repetitions are independent witnesses: fill them on the pool,
    // each into its own slot, then list the columns in rep order.
    std::vector<std::array<std::vector<Fp>, 3>> per_rep_wires(reps);
    proof.publicInputs.resize(reps);
    parallelFor(0, reps, /*grain=*/1, [&](size_t r_lo, size_t r_hi) {
        for (size_t r = r_lo; r < r_hi; ++r) {
            per_rep_wires[r] = circuit.fillWitness(inputs[r]);
            proof.publicInputs[r] = circuit.publicValues(per_rep_wires[r]);
        }
    });
    std::vector<Fp> wire_values;
    wire_values.reserve(3 * reps * n);
    for (const auto &rep : per_rep_wires)
        for (const auto &col : rep)
            wire_values.insert(wire_values.end(), col.begin(), col.end());
    // Public inputs are part of the statement: bind them into the
    // transcript before any challenge is drawn.
    for (const auto &row : proof.publicInputs)
        challenger.observe(row);
    PolynomialBatch wires = PolynomialBatch::fromValues(
        std::move(wire_values), n, 3 * reps, cfg, ctx, "wires");
    proof.wiresCap = wires.cap();
    for (const auto &digest : wires.cap())
        challenger.observe(digest);

    const Fp beta = challenger.challenge();
    const Fp gamma = challenger.challenge();
    recordChallenger(challenger, ctx, "beta/gamma");

    // ---- Permutation argument Z polynomials (copy constraints). ----
    std::vector<Fp> w_pows(n);
    {
        Fp cur = Fp::one();
        for (size_t i = 0; i < n; ++i) {
            w_pows[i] = cur;
            cur *= w;
        }
    }
    std::vector<Fp> z_values(reps * n);
    {
        const KernelScope scope(ctx, KernelClass::Polynomial,
                                "plonk/permutation-z");
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
                Fp *z = z_values.data() + r * n;
                z[0] = Fp::one();
                for (size_t i = 1; i < n; ++i)
                    z[i] = prefix[i - 1];
            }
        });
    }
    ctx.record(VecOpKernel{n, static_cast<uint32_t>(6 * reps),
                           static_cast<uint32_t>(2 * reps), 12, 0},
               "copy constraints: f,g");
    ctx.record(PartialProductKernel{n * reps, 8}, "quotient chunk PP");

    PolynomialBatch z_batch = PolynomialBatch::fromValues(
        std::move(z_values), n, reps, cfg, ctx, "Z");
    // Only the public values and the Z products read the witness.
    per_rep_wires = {};
    proof.zCap = z_batch.cap();
    for (const auto &digest : z_batch.cap())
        challenger.observe(digest);

    const Fp alpha = challenger.challenge();
    recordChallenger(challenger, ctx, "alpha");

    // ---- Quotient polynomial on the 4n coset domain. ----
    // Stored bit-reversed, the 4n-point coset is the first 4n values of
    // every committed LDE column (DESIGN.md §6.11).
    unizk_assert(quotient_blowup_bits <= cfg.blowupBits,
                 "the Plonk quotient needs a commitment blowup >= 4");
    const size_t big = n << quotient_blowup_bits;
    std::vector<Fp> combined(big);
    {
        const KernelScope scope(ctx, KernelClass::Polynomial,
                                "plonk/quotient");
        // UniZK computes these coset LDEs, so the trace keeps them; the
        // CPU reads the committed prefix instead.
        ctx.record(NttKernel{log2Exact(big),
                             8 + 4 * reps, false, true, false,
                             PolyLayout::PolyMajor},
                   "quotient: coset LDEs");

        // In the columns' order: domain points, Z_H per stored quarter,
        // L_row(x) = Z_H(x) * w^row / (n * (x - w^row)) of row 0 (L_1)
        // and of the public-input rows.
        const std::vector<Fp> xs = bitReversedCosetPoints(big, shift);
        const std::vector<Fp> z_h =
            vanishingOnCoset(n, uint32_t{1} << quotient_blowup_bits, shift);
        auto lagrange_at = [&](Fp point) {
            std::vector<Fp> l(big);
            for (size_t i = 0; i < big; ++i)
                l[i] = (xs[i] - point) * Fp(static_cast<uint64_t>(n));
            batchInverse(l);
            for (size_t i = 0; i < big; ++i)
                l[i] *= z_h[i / n] * point;
            return l;
        };
        const std::vector<Fp> l1 = lagrange_at(Fp::one());
        const auto &pub_rows = circuit.publicRows();
        std::vector<std::vector<Fp>> l_rows;
        for (const size_t row : pub_rows)
            l_rows.push_back(lagrange_at(w.pow(row)));

        PlonkQuotientInputs in;
        in.points = big;
        in.rotation = size_t{1} << quotient_blowup_bits;
        in.reps = reps;
        in.numPublic = pub_rows.size();
        for (size_t t = 0; t < 5; ++t)
            in.selectors[t] = key.constants->ldeColumn(t);
        for (size_t j = 0; j < 3; ++j) {
            in.sigmas[j] = key.constants->ldeColumn(5 + j);
            in.betaShift[j] = beta * plonkCosetShift(j);
        }
        in.xs = xs.data();
        in.l1 = l1.data();
        std::vector<const Fp *> lagrange(pub_rows.size());
        for (size_t k = 0; k < pub_rows.size(); ++k)
            lagrange[k] = l_rows[k].data();
        in.lagrangePublic = lagrange.data();
        std::vector<const Fp *> wire_cols(3 * reps), z_cols(reps);
        for (size_t t = 0; t < 3 * reps; ++t)
            wire_cols[t] = wires.ldeColumn(t);
        for (size_t r = 0; r < reps; ++r)
            z_cols[r] = z_batch.ldeColumn(r);
        in.wires = wire_cols.data();
        in.z = z_cols.data();
        std::vector<Fp> neg_public(reps * pub_rows.size());
        for (size_t r = 0; r < reps; ++r)
            for (size_t k = 0; k < pub_rows.size(); ++k)
                neg_public[r * pub_rows.size() + k] =
                    -proof.publicInputs[r][k];
        in.negPublic = neg_public.data();
        std::vector<Fp> alphas(3 * reps);
        {
            Fp alpha_pow = Fp::one();
            for (Fp &a : alphas) {
                a = alpha_pow;
                alpha_pow *= alpha;
            }
        }
        in.alphas = alphas.data();
        in.beta = beta;
        in.gamma = gamma;
        for (size_t q = 0; q < 4; ++q)
            in.zhInverse[q] = z_h[q].inverse();
        plonkQuotient(in, combined.data());
    }
    ctx.record(VecOpKernel{big, static_cast<uint32_t>(8 + 4 * reps), 1,
                           static_cast<uint32_t>(30 * reps),
                           /*randomAccessGranularity=*/
                           static_cast<uint32_t>(8 * 3)},
               "quotient: gate + permutation constraints");

    {
        const KernelScope scope(ctx, KernelClass::Ntt, "plonk/quotient-intt");
        cosetInttRN(combined, shift); // bit-reversed values in
    }
    ctx.record(NttKernel{log2Exact(big), 1, true, true, false,
                         PolyLayout::PolyMajor},
               "quotient: iNTT");
    // Degree must be below 4n by construction.
    PolynomialBatch quotient = PolynomialBatch::fromCoefficients(
        std::move(combined), n, plonkQuotientChunks, cfg, ctx, "quotient");
    proof.quotientCap = quotient.cap();
    for (const auto &digest : quotient.cap())
        challenger.observe(digest);

    const Fp2 zeta = challenger.challengeExt();
    recordChallenger(challenger, ctx, "zeta");

    // ---- Openings at zeta and w*zeta, proven by FRI. ----
    FriOpenedProof opened = friProve(
        {key.constants.get(), &wires, &z_batch, &quotient}, {zeta, zeta * w},
        challenger, cfg, ctx, "plonk/openings");
    proof.openings = std::move(opened.openings);
    proof.fri = std::move(opened.proof);
    unizk_assert(quotientIdentityHolds(proof.openings[0], proof.openings[1],
                                       zeta, n, reps, beta, gamma, alpha,
                                       circuit.publicRows(),
                                       proof.publicInputs),
                 "prover-side quotient identity failed");
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

    // FRI certifies the openings (and their shape); only then does the
    // quotient identity read them.
    const Fp w = Fp::primitiveRootOfUnity(log2Exact(n));
    const std::vector<FriBatchInfo> batches{
        {constants_cap, 8},
        {proof.wiresCap, 3 * reps},
        {proof.zCap, reps},
        {proof.quotientCap, plonkQuotientChunks}};
    return friVerify(batches, n, {zeta, zeta * w}, proof.openings,
                     proof.fri, challenger, cfg) &&
           quotientIdentityHolds(proof.openings[0], proof.openings[1], zeta,
                                 n, reps, beta, gamma, alpha, public_rows,
                                 proof.publicInputs);
}

} // namespace unizk
