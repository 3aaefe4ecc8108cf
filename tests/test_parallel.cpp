/**
 * @file
 * Determinism tests for the parallel runtime: proofs, Merkle caps, and
 * batch inverses must be bitwise identical for any thread count. On a
 * single-core machine the extra threads are oversubscribed, but the
 * chunk interleavings they produce still exercise the guarantee.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "merkle/merkle_tree.h"
#include "plonk/plonk.h"
#include "serialize/proof_io.h"

namespace unizk {
namespace {

constexpr unsigned kThreadCounts[] = {1, 2, 8};

/** Restore the global pool to auto sizing when a test exits. */
struct ThreadCountGuard
{
    ~ThreadCountGuard() { setGlobalThreadCount(0); }
};

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

TEST(ParallelDeterminism, PlonkProofBytesIdenticalAcrossThreadCounts)
{
    ThreadCountGuard guard;
    const Circuit circuit = powerBuilder().build(16);
    const FriConfig cfg = FriConfig::testing();

    std::vector<std::vector<Fp>> inputs;
    SplitMix64 rng(7);
    for (size_t r = 0; r < 3; ++r) {
        const Fp x = randomFp(rng);
        inputs.push_back({x, x.pow(8) + x});
    }

    std::vector<uint8_t> reference;
    for (const unsigned threads : kThreadCounts) {
        setGlobalThreadCount(threads);
        ASSERT_EQ(globalThreadPool().threadCount(), threads);
        ProverContext ctx;
        const PlonkProvingKey key = plonkSetup(circuit, cfg, ctx);
        const PlonkProof proof =
            plonkProve(circuit, key, inputs, cfg, ctx);
        EXPECT_TRUE(plonkVerify(key.constants->cap(), proof, cfg));
        const std::vector<uint8_t> bytes = serializePlonkProof(proof);
        if (reference.empty())
            reference = bytes;
        else
            EXPECT_EQ(bytes, reference)
                << "proof differs at " << threads << " threads";
    }
}

TEST(ParallelDeterminism, MerkleCapIdenticalAcrossThreadCounts)
{
    ThreadCountGuard guard;
    SplitMix64 rng(13);
    // 256 leaves of the paper's wide-leaf shape, column-major.
    std::vector<Fp> columns(135 * 256);
    for (auto &x : columns)
        x = randomFp(rng);
    const LeafView leaves = LeafView::columnMajor(columns.data(), 135, 256);

    std::vector<MerkleCap> caps;
    for (const unsigned threads : kThreadCounts) {
        setGlobalThreadCount(threads);
        MerkleTree tree(leaves, 2);
        caps.push_back(tree.cap());
    }
    for (size_t k = 1; k < caps.size(); ++k) {
        ASSERT_EQ(caps[k].size(), caps[0].size());
        for (size_t i = 0; i < caps[0].size(); ++i)
            EXPECT_EQ(caps[k][i], caps[0][i])
                << "cap entry " << i << " differs at "
                << kThreadCounts[k] << " threads";
    }
}

TEST(ParallelDeterminism, BatchInverseIdenticalAcrossThreadCounts)
{
    ThreadCountGuard guard;
    SplitMix64 rng(17);
    std::vector<Fp> xs(10'000);
    for (auto &x : xs)
        x = randomFp(rng);

    std::vector<Fp> reference;
    for (const unsigned threads : kThreadCounts) {
        setGlobalThreadCount(threads);
        std::vector<Fp> ys = xs;
        batchInverse(ys);
        if (reference.empty()) {
            reference = ys;
            for (size_t i = 0; i < xs.size(); ++i)
                EXPECT_EQ(xs[i] * ys[i], Fp::one());
        } else {
            EXPECT_EQ(ys, reference);
        }
    }
}

} // namespace
} // namespace unizk
