/**
 * @file
 * Tests for the STARK prover/verifier using the paper's Fibonacci AET
 * example (Figure 2) plus a degree-3 constraint system to exercise
 * multi-chunk quotients.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/bits.h"
#include "common/rng.h"
#include "common/thread_pool.h"
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

TEST(Stark, TraceCheckerRejectsOneBadCellAtEveryThreadCount)
{
    // checkTrace scans row chunks on the pool: a single corrupted cell
    // in the first, a middle or the last row must fail whichever chunk
    // holds it, and the clean trace must pass.
    const size_t n = 8192;
    const auto clean = fibonacciTrace(n);
    FibonacciAir air(clean[1].back());
    const unsigned saved = globalThreadCount();
    for (const unsigned threads : {1u, 3u, 4u}) {
        setGlobalThreadCount(threads);
        EXPECT_TRUE(air.checkTrace(clean)) << "threads=" << threads;
        for (const size_t row : {size_t{0}, n / 2 + 3, n - 1}) {
            auto trace = clean;
            trace[0][row] += Fp::one();
            EXPECT_FALSE(air.checkTrace(trace))
                << "threads=" << threads << " row=" << row;
        }
    }
    setGlobalThreadCount(saved);
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

TEST(Stark, TruncatedOpeningsRowRejected)
{
    // The verifier reads no opening before FRI has checked their shape:
    // a row cut short, even to nothing, is rejected without a crash.
    const auto trace = fibonacciTrace(128);
    FibonacciAir air(trace[1].back());
    ProverContext ctx;
    const FriConfig cfg = FriConfig::testing();
    const auto proof = starkProve(air, trace, cfg, ctx);
    for (size_t row = 0; row < 2; ++row) {
        for (const bool empty : {false, true}) {
            auto bad = proof;
            bad.openings[row].resize(empty ? 0
                                           : bad.openings[row].size() - 1);
            EXPECT_FALSE(starkVerify(air, bad, cfg))
                << "row " << row << (empty ? " emptied" : " cut by one");
        }
    }
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

/**
 * The prover's former quotient loop: trace columns on the quotient
 * domain in natural order, value i at the point shift * w^i.
 */
std::vector<Fp>
naturalOrderQuotient(const StarkAir &air,
                     const std::vector<std::vector<Fp>> &lde, size_t n,
                     uint32_t q_bits, Fp shift, Fp alpha)
{
    const size_t cols = air.numColumns();
    const size_t big = n << q_bits;
    const size_t rot = size_t{1} << q_bits;
    const Fp w_big = Fp::primitiveRootOfUnity(log2Exact(big));
    const Fp w_last = Fp::primitiveRootOfUnity(log2Exact(n)).pow(n - 1);
    const Fp n_fp(static_cast<uint64_t>(n));
    const auto bounds = air.boundaries();
    std::vector<Fp> out(big);
    std::vector<Fp> local(cols), next(cols),
        t_vals(air.numConstraints());
    Fp x = shift;
    for (size_t i = 0; i < big; ++i, x *= w_big) {
        for (size_t c = 0; c < cols; ++c) {
            local[c] = lde[c][i];
            next[c] = lde[c][(i + rot) % big];
        }
        air.evalTransition(local, next, t_vals);
        const Fp trans_factor =
            (x - w_last) * (x.pow(n) - Fp::one()).inverse();
        Fp acc;
        Fp alpha_pow = Fp::one();
        for (const Fp &t : t_vals) {
            acc += t * trans_factor * alpha_pow;
            alpha_pow *= alpha;
        }
        for (const BoundaryConstraint &bc : bounds) {
            const Fp point = bc.lastRow ? w_last : Fp::one();
            acc += (local[bc.column] - bc.value) *
                   ((x - point) * n_fp).inverse() * point * alpha_pow;
            alpha_pow *= alpha;
        }
        out[i] = acc;
    }
    return out;
}

TEST(StarkQuotient, MatchesNaturalOrderLoopAtEveryThreadCount)
{
    // starkQuotientValues reads bit-reversed columns (the committed
    // LDE's prefix) and writes bit-reversed values; bit-reversed back,
    // they must be the natural-order loop's. Degree 2 (q = 1) and
    // degree 3 (q = 2) AIRs, domains down to one Z_H block per lane.
    SplitMix64 rng(77);
    const FibonacciAir fib(randomFp(rng));
    const CubeAir cube(randomFp(rng), randomFp(rng));
    for (const StarkAir *air : {static_cast<const StarkAir *>(&fib),
                                static_cast<const StarkAir *>(&cube)}) {
        const uint32_t q_bits =
            std::max<uint32_t>(1, ceilLog2(air->constraintDegree()));
        for (const size_t n : {size_t{2}, size_t{4}, size_t{64},
                               size_t{1024}}) {
            const size_t big = n << q_bits;
            // Natural columns, and the same columns bit-reversed in one
            // column-major matrix.
            std::vector<std::vector<Fp>> natural(air->numColumns());
            std::vector<Fp> stored;
            for (auto &col : natural) {
                col.resize(big);
                for (Fp &v : col)
                    v = randomFp(rng);
                auto rev = col;
                bitReversePermute(rev);
                stored.insert(stored.end(), rev.begin(), rev.end());
            }
            const LeafView trace = LeafView::columnMajor(
                stored.data(), air->numColumns(), big);
            const Fp shift = FriConfig::testing().shift();
            const Fp alpha = randomFp(rng);
            auto expect =
                naturalOrderQuotient(*air, natural, n, q_bits, shift, alpha);
            bitReversePermute(expect);
            for (const unsigned threads : {1u, 2u, 3u, 8u}) {
                setGlobalThreadCount(threads);
                std::vector<Fp> got(big);
                starkQuotientValues(*air, trace, n, q_bits, shift, alpha,
                                    got.data());
                EXPECT_EQ(got, expect)
                    << "degree " << air->constraintDegree() << " n=" << n
                    << " threads=" << threads;
            }
            setGlobalThreadCount(0);
        }
    }
}

} // namespace
} // namespace unizk
