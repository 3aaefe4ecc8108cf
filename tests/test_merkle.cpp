/**
 * @file
 * Tests for the Merkle tree: construction, proofs against caps of
 * various heights, tamper detection, batched path verification against
 * a single-path oracle, and permutation-count accounting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/bits.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "field/goldilocks_simd.h"
#include "hash/hashing.h"
#include "merkle/merkle_tree.h"

namespace unizk {
namespace {

std::vector<std::vector<Fp>>
randomLeaves(size_t count, size_t len, uint64_t seed)
{
    SplitMix64 rng(seed);
    std::vector<std::vector<Fp>> leaves(count);
    for (auto &leaf : leaves) {
        leaf.resize(len);
        for (auto &x : leaf)
            x = randomFp(rng);
    }
    return leaves;
}

/** How a test packs its leaves into the flat buffer a LeafView reads. */
enum class Layout
{
    RowMajor,
    ColumnMajor,
};

/**
 * A tree over @p leaves, packed into a flat buffer in @p layout
 * (column-major by default, the layout of a committed LDE). The buffer
 * dies with the call: the tree keeps digests only.
 */
MerkleTree
treeOver(const std::vector<std::vector<Fp>> &leaves, uint32_t cap_h,
         Layout layout = Layout::ColumnMajor)
{
    const size_t count = leaves.size();
    const size_t width = leaves.at(0).size();
    const bool rows = layout == Layout::RowMajor;
    std::vector<Fp> flat(count * width);
    for (size_t i = 0; i < count; ++i)
        for (size_t j = 0; j < width; ++j)
            flat[rows ? i * width + j : j * count + i] = leaves[i][j];
    return MerkleTree(rows ? LeafView::rowMajor(flat.data(), width, count)
                           : LeafView::columnMajor(flat.data(), width,
                                                   count),
                      cap_h);
}

class MerkleShapes
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, uint32_t>>
{};

TEST_P(MerkleShapes, AllLeavesVerify)
{
    const auto [count, len, cap_h] = GetParam();
    const auto leaves = randomLeaves(count, len, count + len);
    const uint32_t height = log2Exact(count);
    const MerkleTree tree = treeOver(leaves, cap_h);
    EXPECT_EQ(tree.cap().size(), size_t{1} << cap_h);
    for (size_t i = 0; i < count; ++i) {
        const auto proof = tree.prove(i);
        EXPECT_TRUE(
            MerkleTree::verify(leaves[i], i, proof, tree.cap(), height))
            << "leaf " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MerkleShapes,
    ::testing::Values(std::make_tuple(8, 5, 0),
                      std::make_tuple(16, 1, 0),
                      std::make_tuple(16, 135, 2), // paper leaf width
                      std::make_tuple(64, 12, 4),
                      std::make_tuple(4, 20, 2),   // cap == leaf level
                      std::make_tuple(2, 3, 0)));

TEST(Merkle, TamperedLeafFails)
{
    const auto leaves = randomLeaves(16, 7, 1);
    const MerkleTree tree = treeOver(leaves, 1);
    const auto proof = tree.prove(5);
    auto bad = leaves[5];
    bad[3] += Fp::one();
    EXPECT_FALSE(MerkleTree::verify(bad, 5, proof, tree.cap(), 4));
}

TEST(Merkle, WrongIndexFails)
{
    const auto leaves = randomLeaves(16, 7, 2);
    const MerkleTree tree = treeOver(leaves, 0);
    const auto proof = tree.prove(5);
    EXPECT_FALSE(
        MerkleTree::verify(leaves[5], 6, proof, tree.cap(), 4));
}

TEST(Merkle, TamperedSiblingFails)
{
    const auto leaves = randomLeaves(16, 7, 3);
    const MerkleTree tree = treeOver(leaves, 0);
    auto proof = tree.prove(9);
    proof.siblings[1].elems[0] += Fp::one();
    EXPECT_FALSE(
        MerkleTree::verify(leaves[9], 9, proof, tree.cap(), 4));
}

TEST(Merkle, WrongCapFails)
{
    const auto leaves = randomLeaves(8, 7, 4);
    const MerkleTree tree = treeOver(leaves, 1);
    const auto proof = tree.prove(2);
    auto cap = tree.cap();
    cap[0].elems[0] += Fp::one();
    // Index 2 maps to cap entry 0; corrupting it must break
    // verification.
    EXPECT_FALSE(MerkleTree::verify(leaves[2], 2, proof, cap, 3));
}

TEST(Merkle, ProofLengthMatchesHeightMinusCap)
{
    const auto leaves = randomLeaves(64, 3, 5);
    const MerkleTree tree = treeOver(leaves, 2);
    EXPECT_EQ(tree.prove(0).siblings.size(), 4u); // log2(64) - 2
}

TEST(Merkle, CapAtLeafLevel)
{
    // cap_height == tree height: the cap IS the leaf hashes, proofs are
    // empty.
    const auto leaves = randomLeaves(8, 6, 6);
    const MerkleTree tree = treeOver(leaves, 3);
    const auto proof = tree.prove(4);
    EXPECT_TRUE(proof.siblings.empty());
    EXPECT_TRUE(MerkleTree::verify(leaves[4], 4, proof, tree.cap(), 3));
}

TEST(Merkle, DeterministicCap)
{
    const auto leaves = randomLeaves(16, 5, 7);
    const MerkleTree t1 = treeOver(leaves, 1);
    const MerkleTree t2 = treeOver(leaves, 1);
    EXPECT_EQ(t1.cap()[0], t2.cap()[0]);
    EXPECT_EQ(t1.cap()[1], t2.cap()[1]);
}

TEST(Merkle, DifferentLeavesDifferentCap)
{
    auto leaves = randomLeaves(16, 5, 8);
    const MerkleTree t1 = treeOver(leaves, 0);
    leaves[11][0] += Fp::one();
    const MerkleTree t2 = treeOver(leaves, 0);
    EXPECT_NE(t1.cap()[0], t2.cap()[0]);
}

TEST(Merkle, PermutationCountAccounting)
{
    // 16 leaves of 135 elements with cap height 1:
    // leaves: ceil(135/8)=17 perms each; interior: 16 - 2 = 14.
    EXPECT_EQ(MerkleTree::permutationCount(16, 135, 1), 16 * 17 + 14u);
    // Short leaves (<=4 elements) are packed, not hashed.
    EXPECT_EQ(MerkleTree::permutationCount(8, 3, 0), 7u);
}

TEST(Merkle, PermutationCountEmptyLeafMatchesExecutedHashes)
{
    // Regression: permutationCount used to charge 0 permutations for
    // leaf_len == 0, but the executed path (hashOrNoop -> hashNoPad)
    // permutes once on empty input, so the simulator's kernel-op
    // accounting undercounted by one permutation per leaf. The count
    // must delegate to the hashing layer's own accounting.
    EXPECT_EQ(hashOrNoopPermutationCount(0), 1u);
    EXPECT_EQ(hashOrNoopPermutationCount(0), permutationCountForLength(0));
    // 8 empty leaves, cap height 0: 8 leaf perms + 7 interior.
    EXPECT_EQ(MerkleTree::permutationCount(8, 0, 0), 8u + 7u);

    // The noop path (1..4 elements) really does execute zero
    // permutations, and the hashing path matches hashNoPad chunking.
    for (size_t len = 1; len <= 4; ++len)
        EXPECT_EQ(hashOrNoopPermutationCount(len), 0u) << "len=" << len;
    EXPECT_EQ(hashOrNoopPermutationCount(5), 1u);
    EXPECT_EQ(hashOrNoopPermutationCount(135),
              permutationCountForLength(135));
}

TEST(Merkle, TruncatedProofInteriorNodeForgeryFails)
{
    // Regression test for the proof-length soundness hole: with short
    // leaves (<= 4 elements, packed by hashOrNoop rather than hashed),
    // an interior digest can masquerade as a leaf. Present the level-2
    // node covering leaves 0..3 as "leaf data" with a 1-sibling proof;
    // the hash chain then reaches the root, and a verifier that does
    // not check the proof length against the tree height accepts a
    // statement about a leaf that was never committed.
    const auto leaves = randomLeaves(8, 4, 10);
    const MerkleTree tree = treeOver(leaves, 0);

    // Recompute the two children of the root by hand.
    std::array<HashOut, 8> d;
    for (size_t i = 0; i < 8; ++i)
        d[i] = hashOrNoop(leaves[i]);
    std::array<HashOut, 4> l1;
    for (size_t i = 0; i < 4; ++i)
        l1[i] = hashTwoToOne(d[2 * i], d[2 * i + 1]);
    const HashOut left = hashTwoToOne(l1[0], l1[1]);
    const HashOut right = hashTwoToOne(l1[2], l1[3]);

    // Sanity: the chain really does reach the committed root, so only
    // the explicit length check stands between the forgery and
    // acceptance.
    ASSERT_EQ(hashTwoToOne(left, right), tree.cap()[0]);

    const std::vector<Fp> forged_leaf(left.elems.begin(),
                                      left.elems.end());
    ASSERT_EQ(hashOrNoop(forged_leaf), left); // packed, not hashed
    MerkleProof forged_proof;
    forged_proof.siblings = {right};
    EXPECT_FALSE(MerkleTree::verify(forged_leaf, 0, forged_proof,
                                    tree.cap(), 3));

    // The same data with a full-length honest proof still verifies.
    EXPECT_TRUE(MerkleTree::verify(leaves[0], 0, tree.prove(0),
                                   tree.cap(), 3));
}

TEST(Merkle, WrongProofLengthFails)
{
    const auto leaves = randomLeaves(16, 7, 11);
    const MerkleTree tree = treeOver(leaves, 1);
    auto proof = tree.prove(3);
    ASSERT_EQ(proof.siblings.size(), 3u);

    auto short_proof = proof;
    short_proof.siblings.pop_back();
    EXPECT_FALSE(MerkleTree::verify(leaves[3], 3, short_proof,
                                    tree.cap(), 4));

    auto long_proof = proof;
    long_proof.siblings.push_back(HashOut{});
    EXPECT_FALSE(MerkleTree::verify(leaves[3], 3, long_proof,
                                    tree.cap(), 4));

    // Out-of-range leaf index for the claimed height is also rejected.
    EXPECT_FALSE(MerkleTree::verify(leaves[3], 16 + 3, proof,
                                    tree.cap(), 4));

    EXPECT_TRUE(
        MerkleTree::verify(leaves[3], 3, proof, tree.cap(), 4));
}

/**
 * Level-by-level oracle: scalar hashOrNoop leaves, then one
 * hashTwoToOne per interior node, whole levels at a time, down to a
 * single root. levels[l] holds the 2^(height - l) nodes of level l.
 */
std::vector<std::vector<HashOut>>
oracleLevels(const std::vector<std::vector<Fp>> &leaves)
{
    std::vector<std::vector<HashOut>> levels(1);
    for (const auto &leaf : leaves)
        levels[0].push_back(hashOrNoop(leaf));
    while (levels.back().size() > 1) {
        const auto &prev = levels.back();
        std::vector<HashOut> next(prev.size() / 2);
        for (size_t i = 0; i < next.size(); ++i)
            next[i] = hashTwoToOne(prev[2 * i], prev[2 * i + 1]);
        levels.push_back(std::move(next));
    }
    return levels;
}

/** Names a width-parameterized case by its width, as in ".../135". */
std::string
widthName(const ::testing::TestParamInfo<size_t> &info)
{
    return std::to_string(info.param);
}

class MerkleDifferential : public ::testing::TestWithParam<size_t>
{
  protected:
    void TearDown() override { setGlobalThreadCount(0); }
};

TEST_P(MerkleDifferential, MatchesLevelByLevelOracle)
{
    // The subtree-scheduled build against the oracle for every height,
    // cap, thread count and leaf layout: the split level and the chunk
    // boundaries move with the height and the thread count, and the
    // view's strides with the layout; the digests must not.
    const size_t width = GetParam();
    for (uint32_t height = 0; height <= 12; ++height) {
        const auto leaves =
            randomLeaves(size_t{1} << height, width, 97 * height + width);
        const auto oracle = oracleLevels(leaves);
        for (const unsigned threads : {1u, 2u, 3u, 8u}) {
            setGlobalThreadCount(threads);
            for (uint32_t cap_h = 0; cap_h <= std::min(height, 4u);
                 ++cap_h) {
                for (const Layout layout :
                     {Layout::RowMajor, Layout::ColumnMajor}) {
                    const std::string where =
                        "height=" + std::to_string(height) +
                        " cap=" + std::to_string(cap_h) +
                        " threads=" + std::to_string(threads) +
                        " layout=" +
                        std::to_string(static_cast<int>(layout));
                    const MerkleTree tree = treeOver(leaves, cap_h, layout);
                    ASSERT_EQ(tree.cap(), oracle[height - cap_h]) << where;
                    for (size_t i = 0; i < leaves.size(); ++i) {
                        const auto proof = tree.prove(i);
                        ASSERT_EQ(proof.siblings.size(), height - cap_h);
                        for (uint32_t l = 0; l < height - cap_h; ++l)
                            ASSERT_EQ(proof.siblings[l],
                                      oracle[l][(i >> l) ^ 1])
                                << where << " leaf=" << i
                                << " level=" << l;
                    }
                }
            }
        }
    }
}

// Leaf widths: empty (hashes), 4 (noop packing), 5 (one permutation),
// 135 (the paper's leaf width, 17 permutations).
INSTANTIATE_TEST_SUITE_P(Widths, MerkleDifferential,
                         ::testing::Values(size_t{0}, size_t{4}, size_t{5},
                                           size_t{135}),
                         widthName);

/**
 * Single-path oracle: every structural check, then one scalar
 * hashTwoToOne per level from the leaf's hashOrNoop digest up to the
 * cap.
 */
bool
oracleVerify(const HashOut &leaf_digest, size_t index,
             const MerkleProof &proof, const MerkleCap &cap,
             uint32_t height)
{
    if (!isPowerOfTwo(cap.size()))
        return false;
    const uint32_t cap_h = log2Exact(cap.size());
    if (cap_h > height || proof.siblings.size() != height - cap_h ||
        index >> height != 0)
        return false;
    HashOut node = leaf_digest;
    for (const HashOut &sibling : proof.siblings) {
        node = (index & 1) ? hashTwoToOne(sibling, node)
                           : hashTwoToOne(node, sibling);
        index >>= 1;
    }
    return cap[index] == node;
}

/** The one fault injected into one opening of a batch. */
enum class Fault
{
    None,
    Sibling,
    Leaf,
    Index,
    PathShort,
    PathLong,
    IndexTooHigh,
    Cap,
};

/** n openings of one tree, the cap and height they are checked against. */
struct OpeningBatch
{
    size_t width = 0;
    std::vector<Fp> rows; ///< opening i's leaf: [i * width, (i + 1) * width)
    std::vector<HashOut> digests; ///< hashOrNoop of each opened leaf
    std::vector<size_t> indices;
    std::vector<MerkleProof> proofs;
    MerkleCap cap;
    uint32_t height = 0;
    bool honest = true; ///< no fault that changes what is opened
    std::string label;

    bool
    verifyBatch() const
    {
        std::vector<const MerkleProof *> proof_ptrs;
        for (const MerkleProof &proof : proofs)
            proof_ptrs.push_back(&proof);
        return MerkleTree::verifyBatch(
            LeafView::rowMajor(rows.data(), width, indices.size()),
            indices.data(), proof_ptrs.data(), cap, height);
    }

    /** AND of the oracle over every opening. */
    bool
    oracle() const
    {
        bool ok = true;
        for (size_t i = 0; i < indices.size(); ++i)
            ok = oracleVerify(digests[i], indices[i], proofs[i], cap,
                              height) &&
                 ok;
        return ok;
    }
};

/**
 * Every batch for one leaf width: heights 1-10, caps 0..min(h, 4),
 * 1-9 openings (ragged SIMD tails), and each fault that applies to the
 * shape injected into one random opening. The oracle's leaf digests
 * are computed once per base batch; only a leaf fault changes them.
 */
std::vector<OpeningBatch>
openingBatches(size_t width)
{
    std::vector<OpeningBatch> batches;
    SplitMix64 rng(1000 + width);
    for (uint32_t height = 1; height <= 10; ++height) {
        const auto leaves =
            randomLeaves(size_t{1} << height, width, 31 * height + width);
        for (uint32_t cap_h = 0; cap_h <= std::min(height, 4u); ++cap_h) {
            const MerkleTree tree = treeOver(leaves, cap_h);
            const uint32_t path = height - cap_h;
            for (size_t n = 1; n <= 9; ++n) {
                OpeningBatch base;
                base.width = width;
                base.cap = tree.cap();
                base.height = height;
                for (size_t i = 0; i < n; ++i) {
                    const size_t idx = rng.nextBelow(leaves.size());
                    base.rows.insert(base.rows.end(), leaves[idx].begin(),
                                     leaves[idx].end());
                    base.digests.push_back(hashOrNoop(leaves[idx]));
                    base.indices.push_back(idx);
                    base.proofs.push_back(tree.prove(idx));
                }
                for (const Fault fault :
                     {Fault::None, Fault::Sibling, Fault::Leaf, Fault::Index,
                      Fault::PathShort, Fault::PathLong,
                      Fault::IndexTooHigh, Fault::Cap}) {
                    if ((fault == Fault::Sibling ||
                         fault == Fault::PathShort) &&
                        path == 0)
                        continue;
                    if (fault == Fault::Leaf && width == 0)
                        continue;
                    OpeningBatch b = base;
                    // Empty leaves are all equal, so moving an index
                    // opens the same data there.
                    b.honest = fault == Fault::None ||
                               (fault == Fault::Index && width == 0);
                    const size_t t = rng.nextBelow(n);
                    auto &siblings = b.proofs[t].siblings;
                    switch (fault) {
                    case Fault::None:
                        break;
                    case Fault::Sibling:
                        siblings[rng.nextBelow(path)]
                            .elems[rng.nextBelow(4)] += Fp::one();
                        break;
                    case Fault::Leaf: {
                        Fp *leaf = &b.rows[t * width];
                        leaf[rng.nextBelow(width)] += Fp::one();
                        b.digests[t] =
                            hashOrNoop(std::vector<Fp>(leaf, leaf + width));
                        break;
                    }
                    case Fault::Index:
                        b.indices[t] ^= size_t{1} << rng.nextBelow(height);
                        break;
                    case Fault::PathShort:
                        siblings.pop_back();
                        break;
                    case Fault::PathLong:
                        siblings.push_back(HashOut{});
                        break;
                    case Fault::IndexTooHigh:
                        b.indices[t] |= size_t{1} << height;
                        break;
                    case Fault::Cap:
                        b.cap[b.indices[t] >> path].elems[0] += Fp::one();
                        break;
                    }
                    b.label = "height=" + std::to_string(height) +
                              " cap=" + std::to_string(cap_h) +
                              " n=" + std::to_string(n) + " fault=" +
                              std::to_string(static_cast<int>(fault)) +
                              " opening=" + std::to_string(t);
                    batches.push_back(std::move(b));
                }
            }
        }
    }
    return batches;
}

class MerkleVerifyBatch : public ::testing::TestWithParam<size_t>
{
  protected:
    void
    TearDown() override
    {
        setGlobalThreadCount(0);
        setSimdLevel(level_);
    }

    const SimdLevel level_ = activeSimdLevel();
};

TEST_P(MerkleVerifyBatch, MatchesSinglePathOracle)
{
    // The batch answer must be the AND of the oracle over its openings,
    // for honest batches and for each single fault, at every SIMD level
    // and pool size. The batches run concurrently on the pool, so the
    // thread-count legs also check that verification shares no state.
    const auto batches = openingBatches(GetParam());
    std::vector<uint8_t> expected(batches.size());
    for (size_t i = 0; i < batches.size(); ++i) {
        expected[i] = batches[i].oracle();
        // Honest batches verify and every fault is caught.
        ASSERT_EQ(expected[i] != 0, batches[i].honest)
            << batches[i].label;
    }
    for (const SimdLevel level : {SimdLevel::Scalar, SimdLevel::Avx2}) {
        if (!simdLevelAvailable(level))
            continue;
        ASSERT_TRUE(setSimdLevel(level));
        for (const unsigned threads : {1u, 2u, 3u, 8u}) {
            setGlobalThreadCount(threads);
            std::vector<uint8_t> got(batches.size());
            parallelFor(0, batches.size(), 1, [&](size_t lo, size_t hi) {
                for (size_t i = lo; i < hi; ++i)
                    got[i] = batches[i].verifyBatch();
            });
            for (size_t i = 0; i < batches.size(); ++i)
                ASSERT_EQ(got[i], expected[i])
                    << batches[i].label << " simd=" << simdLevelName(level)
                    << " threads=" << threads;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, MerkleVerifyBatch,
                         ::testing::Values(size_t{0}, size_t{4}, size_t{5},
                                           size_t{135}),
                         widthName);

} // namespace
} // namespace unizk
