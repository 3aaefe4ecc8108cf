/**
 * @file
 * End-to-end determinism regression tests. The whole proving stack is
 * seeded by explicit SplitMix64 state (PR 1 removed every ambient RNG),
 * so two runs with the same seed must agree byte-for-byte: first on the
 * Fiat-Shamir challenger transcript, then on the serialized proof. A
 * failure here means some prover path regained hidden nondeterminism
 * (unordered containers, rand(), uninitialised padding, ...), which the
 * linter in tools/lint/unizk_lint.py is meant to keep out.
 */

#include <cstdio>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "field/goldilocks_simd.h"
#include "fri/fri.h"
#include "fri/polynomial_batch.h"
#include "hash/challenger.h"
#include "ntt/twiddles.h"
#include "plonk/plonk.h"
#include "serialize/bytes.h"
#include "serialize/proof_io.h"
#include "workloads/apps.h"

namespace unizk {
namespace {

/**
 * Drive a challenger through a seeded observe/squeeze schedule and
 * return the byte encoding of everything it squeezed.
 */
std::vector<uint8_t>
challengerTranscript(uint64_t seed)
{
    SplitMix64 rng(seed);
    Challenger challenger;
    ByteWriter out;
    for (int round = 0; round < 16; ++round) {
        // Observe a variable-length batch, then a digest, then squeeze
        // a mix of base and extension challenges -- the same shapes the
        // FRI and Plonk provers use.
        const size_t batch = 1 + static_cast<size_t>(rng.nextBelow(7));
        std::vector<Fp> xs(batch);
        for (Fp &x : xs)
            x = randomFp(rng);
        challenger.observe(xs);

        HashOut digest;
        for (Fp &e : digest.elems)
            e = randomFp(rng);
        challenger.observe(digest);

        out.putFp(challenger.challenge());
        out.putFp2(challenger.challengeExt());
        for (const Fp c : challenger.challenges(3))
            out.putFp(c);
    }
    return out.take();
}

TEST(Determinism, ChallengerTranscriptByteIdenticalAcrossRuns)
{
    const std::vector<uint8_t> first = challengerTranscript(42);
    const std::vector<uint8_t> second = challengerTranscript(42);
    EXPECT_EQ(first, second);

    // Different seed must diverge, or the transcript ignores its input.
    EXPECT_NE(first, challengerTranscript(43));
}

CircuitBuilder
squareChainBuilder()
{
    CircuitBuilder b;
    const Var x = b.input();
    const Var y = b.input();
    Var p = x;
    for (int i = 0; i < 3; ++i)
        p = b.mul(p, p);
    b.assertEqual(b.add(p, x), y);
    return b;
}

std::vector<uint8_t>
provePlonkSeeded(uint64_t seed)
{
    const Circuit circuit = squareChainBuilder().build(16);
    const FriConfig cfg = FriConfig::testing();

    SplitMix64 rng(seed);
    std::vector<std::vector<Fp>> inputs;
    for (size_t r = 0; r < 2; ++r) {
        const Fp x = randomFp(rng);
        inputs.push_back({x, x.pow(8) + x});
    }

    ProverContext ctx;
    const PlonkProvingKey key = plonkSetup(circuit, cfg, ctx);
    const PlonkProof proof = plonkProve(circuit, key, inputs, cfg, ctx);
    EXPECT_TRUE(plonkVerify(key.constants->cap(), proof, cfg));
    return serializePlonkProof(proof);
}

TEST(Determinism, PlonkProofBytesIdenticalAcrossSameSeedRuns)
{
    const std::vector<uint8_t> first = provePlonkSeeded(1234);
    const std::vector<uint8_t> second = provePlonkSeeded(1234);
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, second);
}

TEST(Determinism, PlonkProofBytesInvariantToThreadsAndTwiddleCache)
{
    // The NTT engine's parallel decomposition and twiddle caching must
    // be invisible in proof bytes: field arithmetic is exact, so any
    // chunking or table reuse yields identical canonical values.
    const unsigned saved_threads = globalThreadCount();
    setGlobalThreadCount(1);
    const std::vector<uint8_t> reference = provePlonkSeeded(777);
    ASSERT_FALSE(reference.empty());

    for (const unsigned threads : {2u, 8u}) {
        setGlobalThreadCount(threads);
        EXPECT_EQ(provePlonkSeeded(777), reference)
            << "threads=" << threads;
    }

    setGlobalThreadCount(saved_threads);
    setTwiddleCacheEnabled(false);
    clearTwiddleCache();
    EXPECT_EQ(provePlonkSeeded(777), reference) << "twiddle cache off";
    setTwiddleCacheEnabled(true);
}

std::vector<uint8_t>
proveStarkSeeded()
{
    const StarkApp app = buildStarkApp(AppId::Fibonacci, 1024);
    ProverContext ctx;
    const FriConfig cfg = FriConfig::testing();
    const StarkProof proof = starkProve(*app.air, app.trace, cfg, ctx);
    EXPECT_TRUE(starkVerify(*app.air, proof, cfg));
    return serializeStarkProof(proof);
}

TEST(Determinism, ProofBytesIdenticalAcrossSimdLevelsAndThreads)
{
    // One process, every SIMD level this host can execute, 1/2/3/8
    // threads: the Poseidon batch kernel and the NTT both dispatch on
    // the level, so this is where a lane kernel that differs from the
    // scalar one in even one canonical value would show. (Comparing
    // each level only with itself, run by run, would miss it.)
    const unsigned saved_threads = globalThreadCount();
    const SimdLevel saved_level = activeSimdLevel();

    ASSERT_TRUE(setSimdLevel(SimdLevel::Scalar));
    setGlobalThreadCount(1);
    const std::vector<uint8_t> plonk_ref = provePlonkSeeded(4321);
    const std::vector<uint8_t> stark_ref = proveStarkSeeded();
    ASSERT_FALSE(plonk_ref.empty());
    ASSERT_FALSE(stark_ref.empty());

    std::vector<SimdLevel> levels{SimdLevel::Scalar};
    if (simdLevelAvailable(SimdLevel::Avx2))
        levels.push_back(SimdLevel::Avx2);
    else
        std::printf("AVX2 unavailable: comparing the scalar level only\n");
    for (const SimdLevel level : levels) {
        ASSERT_TRUE(setSimdLevel(level));
        for (const unsigned threads : {1u, 2u, 3u, 8u}) {
            setGlobalThreadCount(threads);
            EXPECT_EQ(provePlonkSeeded(4321), plonk_ref)
                << simdLevelName(level) << " threads=" << threads;
            EXPECT_EQ(proveStarkSeeded(), stark_ref)
                << simdLevelName(level) << " threads=" << threads;
        }
    }

    setGlobalThreadCount(saved_threads);
    ASSERT_TRUE(setSimdLevel(saved_level));
}

/** FNV-1a over a byte string. */
uint64_t
fnv1a(const std::vector<uint8_t> &bytes)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (const uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** A standalone FRI proof over two committed batches of random values
 *  (no PIOP around it), opened at zeta and zeta * g. */
std::vector<uint8_t>
proveFriSeeded()
{
    const FriConfig cfg = FriConfig::testing();
    const size_t n = 64;
    ProverContext ctx;
    SplitMix64 rng(2024);
    auto commit = [&](size_t polys, const char *label) {
        std::vector<Fp> vals(polys * n);
        for (Fp &x : vals)
            x = randomFp(rng);
        return PolynomialBatch::fromValues(std::move(vals), n, polys, cfg,
                                           ctx, label);
    };
    const PolynomialBatch a = commit(5, "a");
    const PolynomialBatch b = commit(3, "b");

    Challenger challenger;
    for (const auto *batch : {&a, &b})
        for (const HashOut &digest : batch->cap())
            challenger.observe(digest);
    const Fp2 zeta = challenger.challengeExt();
    const std::vector<Fp2> points{
        zeta, zeta * Fp::primitiveRootOfUnity(log2Exact(n))};
    return serializeFriProof(
        friProve({&a, &b}, points, challenger, cfg, ctx, "fri/openings")
            .proof);
}

/** A small Plonky2 shape: the Factorial circuit at 256 rows, 3 reps. */
std::vector<uint8_t>
proveFactorialSmall()
{
    const FriConfig cfg = FriConfig::testing();
    ProverContext ctx;
    const PlonkApp app = buildPlonkApp(AppId::Factorial, 256, 3);
    const PlonkProvingKey key = plonkSetup(app.circuit, cfg, ctx);
    const PlonkProof proof =
        plonkProve(app.circuit, key, app.witnesses, cfg, ctx);
    EXPECT_TRUE(plonkVerify(key.constants->cap(), proof, cfg));
    return serializePlonkProof(proof);
}

/* Pinned FNV-1a digests of three proofs' bytes. Determinism across
 * threads and SIMD levels cannot catch a change that moves every
 * level's bytes alike; these digests can. A change that means to alter
 * proof bytes updates them on purpose. */
constexpr uint64_t kPinnedFactorialDigest = 0x81043db983213e9f;
constexpr uint64_t kPinnedFibonacciDigest = 0x577f82d7c4d167c4;
constexpr uint64_t kPinnedFriDigest = 0x7ea180204e1b430b;

TEST(Determinism, ProofBytesMatchPinnedDigests)
{
    const unsigned saved_threads = globalThreadCount();
    const SimdLevel saved_level = activeSimdLevel();

    std::vector<SimdLevel> levels{SimdLevel::Scalar};
    if (simdLevelAvailable(SimdLevel::Avx2))
        levels.push_back(SimdLevel::Avx2);
    for (const SimdLevel level : levels) {
        ASSERT_TRUE(setSimdLevel(level));
        for (const unsigned threads : {1u, 3u, 4u}) {
            setGlobalThreadCount(threads);
            const uint64_t factorial = fnv1a(proveFactorialSmall());
            const uint64_t fibonacci = fnv1a(proveStarkSeeded());
            const uint64_t fri = fnv1a(proveFriSeeded());
            EXPECT_EQ(factorial, kPinnedFactorialDigest)
                << simdLevelName(level) << " threads=" << threads
                << std::hex << " factorial 0x" << factorial;
            EXPECT_EQ(fibonacci, kPinnedFibonacciDigest)
                << simdLevelName(level) << " threads=" << threads
                << std::hex << " fibonacci 0x" << fibonacci;
            EXPECT_EQ(fri, kPinnedFriDigest)
                << simdLevelName(level) << " threads=" << threads
                << std::hex << " fri 0x" << fri;
        }
    }

    setGlobalThreadCount(saved_threads);
    ASSERT_TRUE(setSimdLevel(saved_level));
}

TEST(Determinism, SplitMix64IsPureStateMachine)
{
    // The generator's whole state is the 64-bit seed: equal seeds give
    // equal streams and copies evolve independently.
    SplitMix64 a(99);
    SplitMix64 b(99);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
    // A copy carries the full state: it continues b's stream exactly.
    SplitMix64 fork = a;
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(fork.next(), b.next());
}

TEST(Determinism, NextBelowStaysInRange)
{
    SplitMix64 rng(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.nextBelow(10), 10u);
        EXPECT_EQ(rng.nextBelow(1), 0u);
    }
    // Bound at the field modulus: exactly the randomFp code path.
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextBelow(Fp::modulus), Fp::modulus);
}

} // namespace
} // namespace unizk
