/**
 * @file
 * Tests for the STARK prover/verifier using the paper's Fibonacci AET
 * example (Figure 2) plus a degree-3 constraint system to exercise
 * multi-chunk quotients.
 */

#include <gtest/gtest.h>

#include "common/bits.h"
#include "common/rng.h"
#include "stark/stark.h"

namespace unizk {
namespace {

/** Figure 2: x0' = x1, x1' = x0 + x1; x0[0]=0, x1[0]=1. */
class FibonacciAir : public StarkAir
{
  public:
    explicit FibonacciAir(Fp expected_last) : expected(expected_last) {}

    size_t numColumns() const override { return 2; }
    size_t numConstraints() const override { return 2; }

    template <typename F>
    void
    evalT(const std::vector<F> &local, const std::vector<F> &next,
          std::vector<F> &out) const
    {
        out[0] = next[0] - local[1];
        out[1] = next[1] - (local[0] + local[1]);
    }

    void
    evalTransition(const std::vector<Fp> &local,
                   const std::vector<Fp> &next,
                   std::vector<Fp> &out) const override
    {
        evalT(local, next, out);
    }

    void
    evalTransitionExt(const std::vector<Fp2> &local,
                      const std::vector<Fp2> &next,
                      std::vector<Fp2> &out) const override
    {
        evalT(local, next, out);
    }

    std::vector<BoundaryConstraint>
    boundaries() const override
    {
        return {{0, false, Fp(0)},
                {1, false, Fp(1)},
                {1, true, expected}};
    }

  private:
    Fp expected;
};

std::vector<std::vector<Fp>>
fibonacciTrace(size_t rows)
{
    std::vector<std::vector<Fp>> cols(2, std::vector<Fp>(rows));
    Fp a(0), b(1);
    for (size_t i = 0; i < rows; ++i) {
        cols[0][i] = a;
        cols[1][i] = b;
        const Fp next = a + b;
        a = b;
        b = next;
    }
    return cols;
}

/** Cubing chain with a degree-3 transition: x' = x^3. */
class CubeAir : public StarkAir
{
  public:
    CubeAir(Fp first_, Fp last_) : first(first_), last(last_) {}

    size_t numColumns() const override { return 1; }
    size_t numConstraints() const override { return 1; }
    uint32_t constraintDegree() const override { return 3; }

    template <typename F>
    void
    evalT(const std::vector<F> &local, const std::vector<F> &next,
          std::vector<F> &out) const
    {
        out[0] = next[0] - local[0] * local[0] * local[0];
    }

    void
    evalTransition(const std::vector<Fp> &local,
                   const std::vector<Fp> &next,
                   std::vector<Fp> &out) const override
    {
        evalT(local, next, out);
    }

    void
    evalTransitionExt(const std::vector<Fp2> &local,
                      const std::vector<Fp2> &next,
                      std::vector<Fp2> &out) const override
    {
        evalT(local, next, out);
    }

    std::vector<BoundaryConstraint>
    boundaries() const override
    {
        return {{0, false, first}, {0, true, last}};
    }

  private:
    Fp first, last;
};

TEST(Stark, TraceCheckerAcceptsFibonacci)
{
    const auto trace = fibonacciTrace(64);
    FibonacciAir air(trace[1].back());
    EXPECT_TRUE(air.checkTrace(trace));
}

TEST(Stark, TraceCheckerRejectsBadTransition)
{
    auto trace = fibonacciTrace(64);
    FibonacciAir air(trace[1].back());
    trace[0][10] += Fp::one();
    EXPECT_FALSE(air.checkTrace(trace));
}

TEST(Stark, TraceCheckerRejectsBadBoundary)
{
    const auto trace = fibonacciTrace(64);
    FibonacciAir air(trace[1].back() + Fp::one());
    EXPECT_FALSE(air.checkTrace(trace));
}

TEST(Stark, FibonacciProofVerifies)
{
    const auto trace = fibonacciTrace(128);
    FibonacciAir air(trace[1].back());
    ProverContext ctx;
    FriConfig cfg = FriConfig::testing();
    cfg.blowupBits = 1; // Starky's blowup factor of 2
    cfg.numQueries = 12;
    const auto proof = starkProve(air, trace, cfg, ctx);
    EXPECT_EQ(proof.quotientChunks, 1u);
    EXPECT_TRUE(starkVerify(air, proof, cfg));
}

TEST(Stark, DegreeThreeConstraintVerifies)
{
    const size_t rows = 64;
    std::vector<std::vector<Fp>> trace(1, std::vector<Fp>(rows));
    Fp x(3);
    for (size_t i = 0; i < rows; ++i) {
        trace[0][i] = x;
        x = x * x * x;
    }
    CubeAir air(trace[0].front(), trace[0].back());
    ASSERT_TRUE(air.checkTrace(trace));

    ProverContext ctx;
    const FriConfig cfg = FriConfig::testing();
    const auto proof = starkProve(air, trace, cfg, ctx);
    EXPECT_EQ(proof.quotientChunks, 2u);
    EXPECT_TRUE(starkVerify(air, proof, cfg));
}

TEST(Stark, WrongClaimedOutputFailsAtProver)
{
    const auto trace = fibonacciTrace(64);
    FibonacciAir air(trace[1].back() + Fp::one());
    ProverContext ctx;
    EXPECT_DEATH(starkProve(air, trace, FriConfig::testing(), ctx),
                 "constraints");
}

TEST(Stark, TamperedOpeningFails)
{
    const auto trace = fibonacciTrace(128);
    FibonacciAir air(trace[1].back());
    ProverContext ctx;
    const FriConfig cfg = FriConfig::testing();
    auto proof = starkProve(air, trace, cfg, ctx);
    proof.openings[0][0] += Fp2::one();
    EXPECT_FALSE(starkVerify(air, proof, cfg));
}

TEST(Stark, RowCountBeyondTwoAdicityRejected)
{
    // Regression: a row count with no root of unity of its order (or
    // whose FRI domain has none) used to abort the verifier in
    // Fp::primitiveRootOfUnity instead of rejecting the proof.
    const auto trace = fibonacciTrace(128);
    FibonacciAir air(trace[1].back());
    ProverContext ctx;
    FriConfig cfg = FriConfig::testing();
    cfg.blowupBits = 1;
    auto proof = starkProve(air, trace, cfg, ctx);
    ASSERT_TRUE(starkVerify(air, proof, cfg));
    // 2^33 rows; 2^32 rows at blowup 2 need a 2^33-point domain.
    for (const size_t rows : {size_t{1} << 33, size_t{1} << 32}) {
        proof.rows = rows;
        EXPECT_FALSE(starkVerify(air, proof, cfg)) << "rows=" << rows;
    }
}

TEST(Stark, TamperedTraceCapFails)
{
    const auto trace = fibonacciTrace(128);
    FibonacciAir air(trace[1].back());
    ProverContext ctx;
    const FriConfig cfg = FriConfig::testing();
    auto proof = starkProve(air, trace, cfg, ctx);
    proof.traceCap[0].elems[0] += Fp::one();
    EXPECT_FALSE(starkVerify(air, proof, cfg));
}

TEST(Stark, VerifierForDifferentStatementFails)
{
    // A proof for the true output must not verify against an AIR
    // claiming a different output.
    const auto trace = fibonacciTrace(128);
    FibonacciAir air(trace[1].back());
    ProverContext ctx;
    const FriConfig cfg = FriConfig::testing();
    const auto proof = starkProve(air, trace, cfg, ctx);
    FibonacciAir wrong(trace[1].back() + Fp::one());
    EXPECT_FALSE(starkVerify(wrong, proof, cfg));
}

TEST(Stark, StarkyBlowupProofIsLargerThanPlonkyBlowup)
{
    // Blowup 2 needs more queries -> larger proofs (the paper's noted
    // Starky trade-off: cheap proving, multi-MB proofs).
    const auto trace = fibonacciTrace(256);
    FibonacciAir air(trace[1].back());
    ProverContext ctx;

    FriConfig fast = FriConfig::testing(); // blowup 8
    fast.numQueries = 10;
    FriConfig cheap = FriConfig::testing();
    cheap.blowupBits = 1;
    cheap.numQueries = 30; // 3x queries for the same security
    const auto p_fast = starkProve(air, trace, fast, ctx);
    const auto p_cheap = starkProve(air, trace, cheap, ctx);
    EXPECT_GT(p_cheap.byteSize(), p_fast.byteSize());
}

TEST(Stark, RecordsTraceKernels)
{
    const auto trace = fibonacciTrace(128);
    FibonacciAir air(trace[1].back());
    TraceRecorder recorder;
    ProverContext ctx;
    ctx.recorder = &recorder;
    starkProve(air, trace, FriConfig::testing(), ctx);
    size_t merkles = 0;
    for (const auto &op : recorder.trace().ops)
        merkles += std::string(kernelPayloadName(op.payload)) == "merkle";
    EXPECT_GE(merkles, 2u); // trace + quotient + FRI layers
}

} // namespace
} // namespace unizk
