/**
 * @file
 * Tests for the circuit builder and the Plonk prover/verifier:
 * witness generation, permutation construction, honest round trips
 * (including multi-repetition proofs), and rejection of invalid proofs.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "plonk/plonk.h"

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
    TraceRecorder recorder;
    KernelTimeBreakdown breakdown;
    ProverContext ctx;
    ctx.recorder = &recorder;
    ctx.breakdown = &breakdown;

    const FriConfig cfg = FriConfig::testing();
    const Circuit c = powerBuilder().build(64);
    const auto key = plonkSetup(c, cfg, ctx);
    SplitMix64 rng(1);
    const Fp x = randomFp(rng);
    plonkProve(c, key, {{x, x.pow(8) + x}}, cfg, ctx);

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
    EXPECT_GT(breakdown.total(), 0.0);
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

} // namespace
} // namespace unizk
