/**
 * @file
 * Tests for the circuit builder and the Plonk prover/verifier:
 * witness generation, permutation construction, honest round trips
 * (including multi-repetition proofs), and rejection of invalid proofs.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "field/goldilocks_simd.h"
#include "obs/obs.h"
#include "plonk/plonk.h"
#include "plonk/quotient_kernel.h"
#include "workloads/apps.h"

namespace unizk {
namespace {

/** The paper's running example: (x0 + x1) * (x2 * x3) = 99. */
CircuitBuilder
paperExampleBuilder()
{
    CircuitBuilder b;
    const Var x0 = b.input();
    const Var x1 = b.input();
    const Var x2 = b.input();
    const Var x3 = b.input();
    const Var x4 = b.add(x0, x1);
    const Var x5 = b.mul(x2, x3);
    const Var x6 = b.mul(x4, x5);
    b.assertConstant(x6, Fp(99));
    return b;
}

TEST(Circuit, PaperExampleWitness)
{
    const Circuit c = paperExampleBuilder().build();
    EXPECT_EQ(c.rows(), 4u);
    EXPECT_EQ(c.inputCount(), 4u);
    // (1 + 2) * (3 * 11) = 99
    const auto wires =
        c.fillWitness({Fp(1), Fp(2), Fp(3), Fp(11)});
    EXPECT_TRUE(c.checkWitness(wires));
}

TEST(Circuit, UnsatisfiableWitnessDies)
{
    const Circuit c = paperExampleBuilder().build();
    EXPECT_DEATH(c.fillWitness({Fp(1), Fp(2), Fp(3), Fp(4)}),
                 "constraint");
}

TEST(Circuit, ArithmeticGates)
{
    CircuitBuilder b;
    const Var x = b.input();
    const Var y = b.input();
    const Var s = b.sub(x, y);
    const Var l = b.linear(Fp(3), x, Fp(5), y, Fp(7));
    const Var m = b.mulAdd(x, y, s);
    b.assertConstant(s, Fp(6));       // 10 - 4
    b.assertConstant(l, Fp(57));      // 3*10 + 5*4 + 7
    b.assertConstant(m, Fp(46));      // 10*4 + 6
    const Circuit c = b.build();
    const auto wires = c.fillWitness({Fp(10), Fp(4)});
    EXPECT_TRUE(c.checkWitness(wires));
}

TEST(Circuit, AssertEqualGate)
{
    CircuitBuilder b;
    const Var x = b.input();
    const Var y = b.input();
    b.assertEqual(x, y);
    const Circuit c = b.build();
    EXPECT_TRUE(c.checkWitness(c.fillWitness({Fp(5), Fp(5)})));
    EXPECT_DEATH(c.fillWitness({Fp(5), Fp(6)}), "constraint");
}

/**
 * The witness fill in its general division form: each gate output is
 * solved as c = (qL*a + qR*b + qM*a*b + qC) * (-qO)^-1. fillWitness
 * relies on qO = -1 instead and must agree with this everywhere.
 */
std::array<std::vector<Fp>, 3>
divisionFormFill(const Circuit &circuit, const std::vector<Fp> &inputs)
{
    const std::vector<Gate> &gates = circuit.gateList();
    uint32_t num_vars = 0;
    for (const uint32_t id : circuit.inputVars())
        num_vars = std::max(num_vars, id + 1);
    for (const Gate &g : gates)
        for (const Var v : {g.a, g.b, g.c})
            if (v.isValid())
                num_vars = std::max(num_vars, v.id + 1);
    std::vector<Fp> values(num_vars);
    std::vector<bool> defined(num_vars, false);
    for (size_t i = 0; i < inputs.size(); ++i) {
        values[circuit.inputVars()[i]] = inputs[i];
        defined[circuit.inputVars()[i]] = true;
    }
    std::vector<bool> public_row(gates.size(), false);
    for (const size_t row : circuit.publicRows())
        public_row[row] = true;
    auto value = [&](Var v) { return v.isValid() ? values[v.id] : Fp(); };
    for (size_t row = 0; row < gates.size(); ++row) {
        const Gate &g = gates[row];
        if (public_row[row] || !g.c.isValid() || defined[g.c.id])
            continue;
        const Fp a = value(g.a);
        const Fp b = value(g.b);
        values[g.c.id] = (g.qL * a + g.qR * b + g.qM * a * b + g.qC) *
                         g.qO.neg().inverse();
        defined[g.c.id] = true;
    }
    std::array<std::vector<Fp>, 3> wires;
    for (auto &col : wires)
        col.assign(circuit.rows(), Fp::zero());
    for (size_t row = 0; row < gates.size(); ++row) {
        wires[0][row] = value(gates[row].a);
        wires[1][row] = value(gates[row].b);
        wires[2][row] = value(gates[row].c);
    }
    return wires;
}

TEST(Circuit, WitnessFillMatchesDivisionForm)
{
    std::vector<AppId> apps = evaluationApps();
    apps.push_back(AppId::Recursion);
    for (const AppId app : apps) {
        for (const size_t rows : {64u, 512u}) {
            const PlonkApp built = buildPlonkApp(app, rows, 2);
            for (size_t r = 0; r < built.witnesses.size(); ++r)
                ASSERT_EQ(built.circuit.fillWitness(built.witnesses[r]),
                          divisionFormFill(built.circuit,
                                           built.witnesses[r]))
                    << appName(app) << " rows=" << rows << " rep=" << r;
        }
    }
}

TEST(Circuit, PermutationIsBijective)
{
    CircuitBuilder b;
    const Var x = b.input();
    Var acc = b.mul(x, x);
    for (int i = 0; i < 10; ++i)
        acc = b.mul(acc, x);
    const Circuit c = b.build();
    const auto &sigma = c.permutation();
    std::vector<bool> seen(sigma.size(), false);
    for (const size_t target : sigma) {
        ASSERT_LT(target, sigma.size());
        EXPECT_FALSE(seen[target]);
        seen[target] = true;
    }
}

TEST(Circuit, PadsToPowerOfTwo)
{
    CircuitBuilder b;
    const Var x = b.input();
    Var acc = x;
    for (int i = 0; i < 5; ++i)
        acc = b.add(acc, x);
    const Circuit c = b.build();
    EXPECT_EQ(c.rows(), 8u);
    // Padding rows are trivially satisfied.
    EXPECT_TRUE(c.checkWitness(c.fillWitness({Fp(3)})));
}

/** A slightly larger circuit: prove knowledge of x with x^8 + x = y. */
CircuitBuilder
powerBuilder()
{
    CircuitBuilder b;
    const Var x = b.input();
    const Var y = b.input();
    Var p = x;
    for (int i = 0; i < 3; ++i)
        p = b.mul(p, p);
    const Var sum = b.add(p, x);
    b.assertEqual(sum, y);
    return b;
}

struct PlonkFixture
{
    Circuit circuit;
    PlonkProvingKey key;
    FriConfig cfg;
    std::vector<std::vector<Fp>> inputs;
    PlonkProof proof;

    PlonkFixture(size_t reps, FriConfig config = FriConfig::testing())
        : circuit(powerBuilder().build(16)), cfg(config)
    {
        ProverContext ctx;
        key = plonkSetup(circuit, cfg, ctx);
        SplitMix64 rng(42);
        for (size_t r = 0; r < reps; ++r) {
            const Fp x = randomFp(rng);
            const Fp y = x.pow(8) + x;
            inputs.push_back({x, y});
        }
        proof = plonkProve(circuit, key, inputs, cfg, ctx);
    }
};

TEST(Plonk, HonestProofVerifies)
{
    PlonkFixture f(1);
    EXPECT_TRUE(plonkVerify(f.key.constants->cap(), f.proof, f.cfg));
}

TEST(Plonk, MultiRepetitionProofVerifies)
{
    PlonkFixture f(5);
    EXPECT_EQ(f.proof.repetitions, 5u);
    EXPECT_TRUE(plonkVerify(f.key.constants->cap(), f.proof, f.cfg));
}

TEST(Plonk, PaperExampleProofVerifies)
{
    ProverContext ctx;
    const FriConfig cfg = FriConfig::testing();
    const Circuit c = paperExampleBuilder().build(16);
    const auto key = plonkSetup(c, cfg, ctx);
    const auto proof =
        plonkProve(c, key, {{Fp(1), Fp(2), Fp(3), Fp(11)}}, cfg, ctx);
    EXPECT_TRUE(plonkVerify(key.constants->cap(), proof, cfg));
}

TEST(Plonk, TamperedOpeningFails)
{
    PlonkFixture f(2);
    auto bad = f.proof;
    bad.openings[0][9] += Fp2::one();
    EXPECT_FALSE(plonkVerify(f.key.constants->cap(), bad, f.cfg));
}

TEST(Plonk, TruncatedOpeningsRowRejected)
{
    // The verifier reads no opening before FRI has checked their shape:
    // a row cut short, even to nothing, is rejected without a crash.
    PlonkFixture f(2);
    for (size_t row = 0; row < 2; ++row) {
        for (const bool empty : {false, true}) {
            auto bad = f.proof;
            bad.openings[row].resize(empty ? 0
                                           : bad.openings[row].size() - 1);
            EXPECT_FALSE(plonkVerify(f.key.constants->cap(), bad, f.cfg))
                << "row " << row << (empty ? " emptied" : " cut by one");
        }
    }
}

TEST(Plonk, TamperedWiresCapFails)
{
    PlonkFixture f(1);
    auto bad = f.proof;
    bad.wiresCap[0].elems[0] += Fp::one();
    EXPECT_FALSE(plonkVerify(f.key.constants->cap(), bad, f.cfg));
}

TEST(Plonk, WrongConstantsCapFails)
{
    PlonkFixture f(1);
    auto cap = f.key.constants->cap();
    cap[0].elems[1] += Fp::one();
    EXPECT_FALSE(plonkVerify(cap, f.proof, f.cfg));
}

TEST(Plonk, TamperedQuotientOpeningFails)
{
    PlonkFixture f(1);
    auto bad = f.proof;
    // Last flattened polys are the quotient chunks.
    bad.openings[0].back() += Fp2::one();
    EXPECT_FALSE(plonkVerify(f.key.constants->cap(), bad, f.cfg));
}

TEST(Plonk, RowCountBeyondTwoAdicityRejected)
{
    // Regression: a row count with no root of unity of its order (or
    // whose FRI domain has none) used to abort the verifier in
    // Fp::primitiveRootOfUnity instead of rejecting the proof.
    PlonkFixture f(1);
    ASSERT_TRUE(plonkVerify(f.key.constants->cap(), f.proof, f.cfg));
    auto bad = f.proof;
    // 2^33 rows; 2^30 rows at blowup 8 need a 2^33-point domain.
    for (const size_t rows : {size_t{1} << 33, size_t{1} << 30}) {
        bad.rows = rows;
        EXPECT_FALSE(plonkVerify(f.key.constants->cap(), bad, f.cfg))
            << "rows=" << rows;
    }
}

TEST(Plonk, ProofSizeReported)
{
    PlonkFixture f(1);
    EXPECT_GT(f.proof.byteSize(), 1000u);
}

TEST(Plonk, TraceRecordsExpectedKernelMix)
{
    // Class time does not depend on obs: KernelScope fills the breakdown
    // with spans switched off at runtime.
    obs::setEnabled(false);
    TraceRecorder recorder;
    KernelTimeBreakdown breakdown;
    ProverContext ctx;
    ctx.recorder = &recorder;
    ctx.breakdown = &breakdown;

    const FriConfig cfg = FriConfig::testing();
    const Circuit c = powerBuilder().build(64);
    const auto key = plonkSetup(c, cfg, ctx);
    breakdown = KernelTimeBreakdown{}; // count the prove only
    SplitMix64 rng(1);
    const Fp x = randomFp(rng);
    const Stopwatch prove_clock;
    plonkProve(c, key, {{x, x.pow(8) + x}}, cfg, ctx);
    const double prove_s = prove_clock.elapsedSeconds();

    size_t ntts = 0, merkles = 0, vecops = 0, pps = 0, hashes = 0;
    for (const auto &op : recorder.trace().ops) {
        const std::string name = kernelPayloadName(op.payload);
        ntts += name == "ntt";
        merkles += name == "merkle";
        vecops += name == "vecop";
        pps += name == "partial_product";
        hashes += name == "hash";
    }
    EXPECT_GE(ntts, 6u);    // per-batch iNTT+LDE, quotient LDEs + iNTT
    EXPECT_GE(merkles, 4u); // constants, wires, Z, quotient, FRI layers
    EXPECT_GE(vecops, 3u);
    EXPECT_EQ(pps, 1u);
    EXPECT_GE(hashes, 1u);

    // Every class the prover times got time, and the scopes never
    // overlap, so together they fit inside the prove.
    EXPECT_GT(breakdown.seconds(KernelClass::Polynomial), 0.0);
    EXPECT_GT(breakdown.seconds(KernelClass::Ntt), 0.0);
    EXPECT_GT(breakdown.seconds(KernelClass::MerkleTree), 0.0);
    ASSERT_GT(cfg.powBits, 0u);
    EXPECT_GT(breakdown.seconds(KernelClass::OtherHash), 0.0);
    EXPECT_LE(breakdown.total(), prove_s);
}

/** Circuit with a public output: prove y = x^4 + 7 for public y. */
struct PublicInputFixture
{
    Circuit circuit;
    PlonkProvingKey key;
    FriConfig cfg = FriConfig::testing();
    PlonkProof proof;
    Fp public_y;

    PublicInputFixture()
    {
        CircuitBuilder b;
        const Var x = b.input();
        const Var y = b.publicInput();
        const Var x2 = b.mul(x, x);
        const Var x4 = b.mul(x2, x2);
        const Var sum = b.linear(Fp::one(), x4, Fp::zero(), x4, Fp(7));
        b.assertEqual(sum, y);
        circuit = b.build(16);

        ProverContext ctx;
        key = plonkSetup(circuit, cfg, ctx);
        const Fp x_val(5);
        public_y = x_val.pow(4) + Fp(7);
        proof = plonkProve(circuit, key, {{x_val, public_y}}, cfg, ctx);
    }
};

TEST(PlonkPublicInputs, ProofCarriesPublicValues)
{
    PublicInputFixture f;
    ASSERT_EQ(f.proof.publicInputs.size(), 1u);
    ASSERT_EQ(f.proof.publicInputs[0].size(), 1u);
    EXPECT_EQ(f.proof.publicInputs[0][0], f.public_y);
}

TEST(PlonkPublicInputs, VerifiesWithPublicRows)
{
    PublicInputFixture f;
    EXPECT_TRUE(plonkVerify(f.key.constants->cap(), f.proof, f.cfg,
                            f.circuit.publicRows()));
}

TEST(PlonkPublicInputs, TamperedPublicValueFails)
{
    PublicInputFixture f;
    auto bad = f.proof;
    bad.publicInputs[0][0] += Fp::one();
    EXPECT_FALSE(plonkVerify(f.key.constants->cap(), bad, f.cfg,
                             f.circuit.publicRows()));
}

TEST(PlonkPublicInputs, MissingPublicRowsFails)
{
    // A verifier unaware of the public rows must not accept: the
    // claimed publics then disagree with the transcript/PI polynomial.
    PublicInputFixture f;
    EXPECT_FALSE(plonkVerify(f.key.constants->cap(), f.proof, f.cfg,
                             /*public_rows=*/{}));
}

TEST(PlonkPublicInputs, WrongPublicCountRejected)
{
    PublicInputFixture f;
    auto bad = f.proof;
    bad.publicInputs[0].push_back(Fp(1));
    EXPECT_FALSE(plonkVerify(f.key.constants->cap(), bad, f.cfg,
                             f.circuit.publicRows()));
}

TEST(PlonkPublicInputs, MultiRepetitionDistinctPublics)
{
    CircuitBuilder b;
    const Var x = b.input();
    const Var y = b.publicInput();
    b.assertEqual(b.mul(x, x), y);
    const Circuit c = b.build(16);

    ProverContext ctx;
    const FriConfig cfg = FriConfig::testing();
    const auto key = plonkSetup(c, cfg, ctx);
    const auto proof = plonkProve(
        c, key, {{Fp(3), Fp(9)}, {Fp(4), Fp(16)}}, cfg, ctx);
    ASSERT_EQ(proof.publicInputs.size(), 2u);
    EXPECT_EQ(proof.publicInputs[0][0], Fp(9));
    EXPECT_EQ(proof.publicInputs[1][0], Fp(16));
    EXPECT_TRUE(plonkVerify(key.constants->cap(), proof, cfg,
                            c.publicRows()));
}

TEST(PlonkPublicInputs, UnsatisfiedPublicBindingCaughtAtProver)
{
    CircuitBuilder b;
    const Var x = b.input();
    const Var y = b.publicInput();
    b.assertEqual(b.mul(x, x), y);
    const Circuit c = b.build(16);
    ProverContext ctx;
    const FriConfig cfg = FriConfig::testing();
    const auto key = plonkSetup(c, cfg, ctx);
    // y != x^2: the equality gate fails during witness filling.
    EXPECT_DEATH(plonkProve(c, key, {{Fp(3), Fp(10)}}, cfg, ctx),
                 "constraint");
}

// ---- The quotient's lane kernel against the scalar constraint loop.

/**
 * Owns the columns and constants of one quotient case: `natural` points
 * into natural-order columns for the scalar loop, `in` into bit-reversed
 * copies for the kernel, the order of a committed LDE's prefix.
 */
struct QuotientCase
{
    std::vector<std::vector<Fp>> cols, rev_cols;
    std::vector<const Fp *> lagrange, wires, z;
    std::vector<const Fp *> rev_lagrange, rev_wires, rev_z;
    std::vector<Fp> neg_public, alphas;
    PlonkQuotientInputs natural; ///< zhInverse[i mod 4] at point i
    PlonkQuotientInputs in;

    QuotientCase(size_t points, size_t reps, size_t pubs, uint64_t seed)
    {
        SplitMix64 rng(seed);
        // Random values, with p - 1 and 0 sprinkled in at fixed strides.
        auto column = [&]() {
            std::vector<Fp> c(points);
            for (size_t i = 0; i < points; ++i)
                c[i] = i % 7 == 3   ? Fp(Fp::modulus - 1)
                       : i % 11 == 5 ? Fp()
                                     : randomFp(rng);
            return c;
        };
        // 5 selectors, 3 sigmas, xs, l1, pubs Lagrange columns, 3 reps
        // wires, reps Z columns.
        const size_t num_cols = 10 + pubs + 4 * reps;
        for (size_t t = 0; t < num_cols; ++t) {
            cols.push_back(column());
            rev_cols.push_back(cols.back());
            bitReversePermute(rev_cols.back());
        }
        for (size_t t = 0; t < reps * pubs; ++t)
            neg_public.push_back(-randomFp(rng));
        for (size_t t = 0; t < 3 * reps; ++t)
            alphas.push_back(t == 1 ? Fp(Fp::modulus - 1) : randomFp(rng));
        natural.beta = randomFp(rng);
        natural.gamma = randomFp(rng);
        for (Fp &v : natural.zhInverse)
            v = randomFp(rng);
        bindColumns(natural, cols, lagrange, wires, z, points, reps, pubs);
        in = natural;
        bindColumns(in, rev_cols, rev_lagrange, rev_wires, rev_z, points,
                    reps, pubs);
        // Stored quarter q holds the natural points i with
        // i mod 4 = rev_2(q).
        for (size_t q = 0; q < 4; ++q)
            in.zhInverse[q] = natural.zhInverse[reverseBits(q, 2)];
    }

    /** Point @p x at columns @p c and the shared constants. */
    void
    bindColumns(PlonkQuotientInputs &x,
                const std::vector<std::vector<Fp>> &c,
                std::vector<const Fp *> &lag, std::vector<const Fp *> &w,
                std::vector<const Fp *> &zs, size_t points, size_t reps,
                size_t pubs)
    {
        x.points = points;
        x.rotation = 4;
        x.reps = reps;
        x.numPublic = pubs;
        for (size_t t = 0; t < 5; ++t)
            x.selectors[t] = c[t].data();
        for (size_t j = 0; j < 3; ++j)
            x.sigmas[j] = c[5 + j].data();
        x.xs = c[8].data();
        x.l1 = c[9].data();
        for (size_t k = 0; k < pubs; ++k)
            lag.push_back(c[10 + k].data());
        for (size_t t = 0; t < 3 * reps; ++t)
            w.push_back(c[10 + pubs + t].data());
        for (size_t r = 0; r < reps; ++r)
            zs.push_back(c[10 + pubs + 3 * reps + r].data());
        x.lagrangePublic = lag.data();
        x.wires = w.data();
        x.z = zs.data();
        x.negPublic = neg_public.data();
        x.alphas = alphas.data();
        for (size_t j = 0; j < 3; ++j)
            x.betaShift[j] = x.beta * plonkCosetShift(j);
    }
};

/**
 * The prover's former scalar constraint loop over natural-order
 * columns, reducing every operation.
 */
std::vector<Fp>
scalarQuotient(const PlonkQuotientInputs &in)
{
    std::vector<Fp> out(in.points);
    for (size_t i = 0; i < in.points; ++i) {
        Fp acc;
        for (size_t r = 0; r < in.reps; ++r) {
            const Fp a = in.wires[3 * r][i];
            const Fp b = in.wires[3 * r + 1][i];
            const Fp c = in.wires[3 * r + 2][i];
            const Fp z = in.z[r][i];
            const Fp z_w = in.z[r][(i + in.rotation) % in.points];
            Fp gate = in.selectors[0][i] * a + in.selectors[1][i] * b +
                      in.selectors[2][i] * c + in.selectors[3][i] * a * b +
                      in.selectors[4][i];
            for (size_t k = 0; k < in.numPublic; ++k)
                gate -= in.lagrangePublic[k][i] *
                        -in.negPublic[r * in.numPublic + k];
            Fp f = Fp::one(), g = Fp::one();
            const Fp wv[3] = {a, b, c};
            for (size_t j = 0; j < 3; ++j) {
                f *= wv[j] + in.beta * plonkCosetShift(j) * in.xs[i] +
                     in.gamma;
                g *= wv[j] + in.beta * in.sigmas[j][i] + in.gamma;
            }
            const Fp perm = z_w * g - z * f;
            const Fp l1_term = in.l1[i] * (z - Fp::one());
            acc += gate * in.alphas[3 * r] + perm * in.alphas[3 * r + 1] +
                   l1_term * in.alphas[3 * r + 2];
        }
        out[i] = acc * in.zhInverse[i % 4];
    }
    return out;
}

struct QuotientThreadGuard
{
    SimdLevel saved = activeSimdLevel();
    QuotientThreadGuard(SimdLevel level, unsigned threads)
    {
        unizk_assert(setSimdLevel(level), "SIMD level unavailable");
        setGlobalThreadCount(threads);
    }
    ~QuotientThreadGuard()
    {
        setGlobalThreadCount(0);
        setSimdLevel(saved);
    }
};

TEST(PlonkQuotientKernel, MatchesScalarLoopAtEveryLevelAndThreadCount)
{
    // The kernel reads bit-reversed columns and writes bit-reversed
    // values; bit-reversed back, they must be the natural-order loop's.
    // Domains of 4 to 64 points put several Z_H quarters (4 of them
    // narrower than one lane group) inside one 256-point block.
    std::vector<SimdLevel> levels{SimdLevel::Scalar};
    if (simdLevelAvailable(SimdLevel::Avx2))
        levels.push_back(SimdLevel::Avx2);
    uint64_t seed = 40;
    for (const size_t points :
         {size_t{4}, size_t{8}, size_t{16}, size_t{64}, size_t{1024}}) {
        for (const size_t reps : {size_t{1}, size_t{2}, size_t{3}}) {
            for (const size_t pubs : {size_t{0}, size_t{1}, size_t{2}}) {
                const QuotientCase qc(points, reps, pubs, ++seed);
                auto expect = scalarQuotient(qc.natural);
                bitReversePermute(expect);
                for (const SimdLevel level : levels) {
                    for (const unsigned threads : {1u, 2u, 3u, 8u}) {
                        const QuotientThreadGuard guard(level, threads);
                        std::vector<Fp> got(points);
                        plonkQuotient(qc.in, got.data());
                        ASSERT_EQ(got, expect)
                            << simdLevelName(level) << " threads="
                            << threads << " points=" << points
                            << " reps=" << reps << " pubs=" << pubs;
                    }
                    // A sub-range writes exactly its own points.
                    if (points >= 16) {
                        std::vector<Fp> part(points, Fp(12345));
                        plonkQuotientRange(level, qc.in, part.data(), 4,
                                           points - 8);
                        for (size_t i = 0; i < points; ++i)
                            ASSERT_EQ(part[i], i >= 4 && i < points - 8
                                                   ? expect[i]
                                                   : Fp(12345))
                                << simdLevelName(level) << " i=" << i;
                    }
                }
            }
        }
    }
}

} // namespace
} // namespace unizk
