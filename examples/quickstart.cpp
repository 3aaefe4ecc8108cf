/**
 * @file
 * Quickstart: the paper's running example (Figure 1).
 *
 * A prover knows private values (x0, x1, x2, x3) such that
 * (x0 + x1) * (x2 * x3) = 99, and wants to convince a verifier without
 * revealing them. This example builds the circuit, generates a Plonk
 * proof with FRI commitments, verifies it, and then simulates the same
 * proof generation on the UniZK accelerator.
 *
 * Run:  ./examples/quickstart
 */

#include <cstdio>

#include "serialize/proof_io.h"
#include "sim/simulator.h"
#include "unizk/pipeline.h"

using namespace unizk;

int
main()
{
    // ---- 1. Arithmetize the statement (Fig. 1 left). ----
    CircuitBuilder builder;
    const Var x0 = builder.input();
    const Var x1 = builder.input();
    const Var x2 = builder.input();
    const Var x3 = builder.input();
    const Var sum = builder.add(x0, x1);       // x4 = x0 + x1
    const Var prod = builder.mul(x2, x3);      // x5 = x2 * x3
    const Var out = builder.mul(sum, prod);    // x6 = x4 * x5
    builder.assertConstant(out, Fp(99));       // output must be 99
    const Circuit circuit = builder.build(/*min_rows=*/16);
    std::printf("circuit: %zu rows, %zu gates\n", circuit.rows(),
                builder.gateCount());

    // ---- 2. Prove knowledge of a witness: (1 + 2) * (3 * 11) = 99. --
    const FriConfig cfg = FriConfig::plonky2();
    TraceRecorder recorder;
    KernelTimeBreakdown breakdown;
    ProverContext ctx;
    ctx.recorder = &recorder;
    ctx.breakdown = &breakdown;

    const PlonkProvingKey key = plonkSetup(circuit, cfg, ctx);
    const Stopwatch watch;
    const PlonkProof proof = plonkProve(
        circuit, key, {{Fp(1), Fp(2), Fp(3), Fp(11)}}, cfg, ctx);
    std::printf("proved in %.3f s; proof size %.1f kB\n",
                watch.elapsedSeconds(),
                static_cast<double>(serializePlonkProof(proof).size()) /
                    1024.0);

    // ---- 3. Verify. ----
    const bool ok = plonkVerify(key.constants->cap(), proof, cfg);
    std::printf("verification: %s\n", ok ? "ACCEPT" : "REJECT");
    if (!ok)
        return 1;

    // ---- 4. Replay the recorded kernel trace on UniZK. ----
    const SimReport report =
        simulateTrace(recorder.trace(), HardwareConfig::paperDefault());
    std::printf("\nUniZK simulation (%zu kernels):\n%s",
                recorder.trace().size(), formatReport(report).c_str());
    return 0;
}
