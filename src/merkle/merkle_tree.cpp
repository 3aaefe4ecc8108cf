#include "merkle/merkle_tree.h"

#include "common/bits.h"
#include "common/thread_pool.h"
#include "obs/obs.h"

namespace unizk {

MerkleTree::MerkleTree(const LeafView &leaves, uint32_t cap_height)
    : leaf_count_(leaves.count), cap_height_(cap_height)
{
    const size_t count = leaf_count_;
    unizk_assert(isPowerOfTwo(count), "leaf count must be a power of two");
    const uint32_t height = log2Exact(count);
    unizk_assert(cap_height_ <= height, "cap higher than the tree");

    // Leaf digests in parallel: independent Poseidon sponges writing
    // disjoint slots ("Gotta Hash 'Em All": leaf hashing dominates
    // hash-based commitment, so it parallelizes first).
    UNIZK_COUNTER_ADD("merkle.trees", 1);
    UNIZK_COUNTER_ADD("merkle.leaves", count);
    const uint32_t top = height - cap_height_;
    // Every level up to the cap, in level order: 2 * count - (count >>
    // top) digests, the layout prove() reads.
    nodes_.resize(levelOffset(top) + (count >> top));
    {
        UNIZK_SPAN("merkle/leaf-hashes");
        // One row range of the view per grain. Every digest depends
        // only on its own leaf, so grain boundaries (thread count)
        // cannot change a single output byte.
        parallelFor(0, count, /*grain=*/16, [&](size_t lo, size_t hi) {
            hashLeaves(leaves, lo, hi, &nodes_[lo]);
        });
    }

    // Interior levels, scheduled by subtree (the paper's §5 mapping).
    // One region over the roots at split level k hashes each chunk's
    // subtrees bottom-up, level by level. k is the highest level with at
    // least 4 nodes per thread, so the region still has enough chunks to
    // balance; the < 8 * threads nodes above it are hashed on the
    // caller. Every node depends only on its two children, so the split
    // cannot change a digest.
    UNIZK_SPAN("merkle/interior-levels");
    const auto level = [&](uint32_t l) { return &nodes_[levelOffset(l)]; };
    const size_t min_roots = size_t{4} * globalThreadCount();
    uint32_t split = 0;
    while (split < top && (count >> (split + 1)) >= min_roots)
        ++split;
    if (split > 0) {
        // Keep >= 64 interior nodes per chunk so tiny trees stay inline.
        const size_t subtree_nodes = (size_t{1} << split) - 1;
        parallelFor(0, count >> split, ceilDiv(size_t{64}, subtree_nodes),
                    [&](size_t lo, size_t hi) {
                        for (uint32_t l = 1; l <= split; ++l) {
                            const size_t a = lo << (split - l);
                            const size_t b = hi << (split - l);
                            hashTwoToOneBatch(level(l - 1) + 2 * a, b - a,
                                              level(l) + a);
                        }
                    });
    }
    for (uint32_t l = split + 1; l <= top; ++l)
        hashTwoToOneBatch(level(l - 1), count >> l, level(l));
    cap_.assign(level(top), nodes_.data() + nodes_.size());
}

MerkleProof
MerkleTree::prove(size_t leaf_index) const
{
    unizk_assert(leaf_index < leafCount(), "leaf index out of range");
    MerkleProof proof;
    const uint32_t top = log2Exact(leaf_count_) - cap_height_;
    size_t idx = leaf_index;
    // Walk up until the cap level.
    for (uint32_t l = 0; l < top; ++l) {
        proof.siblings.push_back(nodes_[levelOffset(l) + (idx ^ 1)]);
        idx >>= 1;
    }
    return proof;
}

bool
MerkleTree::verifyBatch(const LeafView &leaves, const size_t *indices,
                        const MerkleProof *const *proofs,
                        const MerkleCap &cap, uint32_t height)
{
    // The path length is protocol-determined, not prover-determined: a
    // truncated siblings vector would let an interior digest presented
    // as "leaf data" stop early and match a legitimate cap entry.
    const size_t n = leaves.count;
    if (!isPowerOfTwo(cap.size()))
        return false;
    const uint32_t cap_height = log2Exact(cap.size());
    if (cap_height > height)
        return false;
    const uint32_t path = height - cap_height;
    for (size_t i = 0; i < n; ++i) {
        if (proofs[i]->siblings.size() != path)
            return false;
        if (indices[i] >> height != 0)
            return false;
    }

    std::vector<HashOut> nodes(n);
    hashLeaves(leaves, 0, n, nodes.data());
    // children[2i], children[2i + 1]: the ordered inputs of path i's
    // next node, the sibling on the side its index bit names.
    std::vector<HashOut> children(2 * n);
    for (uint32_t level = 0; level < path; ++level) {
        for (size_t i = 0; i < n; ++i) {
            const size_t bit = (indices[i] >> level) & 1;
            children[2 * i + bit] = nodes[i];
            children[2 * i + (bit ^ 1)] = proofs[i]->siblings[level];
        }
        hashTwoToOneBatch(children.data(), n, nodes.data());
    }
    for (size_t i = 0; i < n; ++i)
        if (cap[indices[i] >> path] != nodes[i])
            return false;
    return true;
}

bool
MerkleTree::verify(const std::vector<Fp> &leaf_data, size_t leaf_index,
                   const MerkleProof &proof, const MerkleCap &cap,
                   uint32_t height)
{
    const MerkleProof *path = &proof;
    return verifyBatch(
        LeafView::rowMajor(leaf_data.data(), leaf_data.size(), 1),
        &leaf_index, &path, cap, height);
}

size_t
MerkleTree::permutationCount(size_t leaf_count, size_t leaf_len,
                             uint32_t cap_height)
{
    // Delegate to the hashing layer's own accounting so this can never
    // drift from the executed path: hashOrNoop's noop covers lengths
    // 1..4 only, and an empty leaf costs one permutation (hashNoPad
    // permutes once on empty input). The old inline `leaf_len <= 4`
    // check charged 0 for leaf_len == 0.
    const size_t leaf_perms = hashOrNoopPermutationCount(leaf_len);
    const size_t interior = leaf_count - (size_t{1} << cap_height);
    return leaf_perms * leaf_count + interior;
}

} // namespace unizk
