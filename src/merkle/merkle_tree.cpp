#include "merkle/merkle_tree.h"

#include "common/bits.h"
#include "common/thread_pool.h"
#include "obs/obs.h"

namespace unizk {

MerkleTree::MerkleTree(const LeafView &leaves, uint32_t cap_height)
    : cap_height_(cap_height)
{
    const size_t count = leaves.count;
    unizk_assert(isPowerOfTwo(count), "leaf count must be a power of two");
    const uint32_t height = log2Exact(count);
    unizk_assert(cap_height_ <= height, "cap higher than the tree");

    // Leaf digests in parallel: independent Poseidon sponges writing
    // disjoint slots ("Gotta Hash 'Em All": leaf hashing dominates
    // hash-based commitment, so it parallelizes first).
    UNIZK_COUNTER_ADD("merkle.trees", 1);
    UNIZK_COUNTER_ADD("merkle.leaves", count);
    const uint32_t top = height - cap_height_;
    levels_.resize(top + 1);
    levels_[0].resize(count);
    {
        UNIZK_SPAN("merkle/leaf-hashes");
        // One row range of the view per grain. Every digest depends
        // only on its own leaf, so grain boundaries (thread count)
        // cannot change a single output byte.
        parallelFor(0, count, /*grain=*/16, [&](size_t lo, size_t hi) {
            hashLeaves(leaves, lo, hi, &levels_[0][lo]);
        });
    }

    // Interior levels, scheduled by subtree (the paper's §5 mapping).
    // All of them are allocated up front in level order (levels_[l]
    // holds 2^(height - l) digests, stopping at the cap), the layout
    // prove() reads. One region over the roots at split level k then
    // hashes each chunk's subtrees bottom-up, level by level. k is the
    // highest level with at least 4 nodes per thread, so the region
    // still has enough chunks to balance; the < 8 * threads nodes above
    // it are hashed on the caller. Every node depends only on its two
    // children, so the split cannot change a digest.
    UNIZK_SPAN("merkle/interior-levels");
    for (uint32_t l = 1; l <= top; ++l)
        levels_[l].resize(count >> l);
    const size_t min_roots = size_t{4} * globalThreadCount();
    uint32_t split = 0;
    while (split < top && levels_[split + 1].size() >= min_roots)
        ++split;
    if (split > 0) {
        // Keep >= 64 interior nodes per chunk so tiny trees stay inline.
        const size_t subtree_nodes = (size_t{1} << split) - 1;
        parallelFor(0, levels_[split].size(),
                    ceilDiv(size_t{64}, subtree_nodes),
                    [&](size_t lo, size_t hi) {
                        for (uint32_t l = 1; l <= split; ++l) {
                            const size_t a = lo << (split - l);
                            const size_t b = hi << (split - l);
                            hashTwoToOneBatch(&levels_[l - 1][2 * a],
                                              b - a, &levels_[l][a]);
                        }
                    });
    }
    for (uint32_t l = split + 1; l <= top; ++l)
        hashTwoToOneBatch(levels_[l - 1].data(), levels_[l].size(),
                          levels_[l].data());
    cap_ = levels_.back();
}

MerkleProof
MerkleTree::prove(size_t leaf_index) const
{
    unizk_assert(leaf_index < leafCount(), "leaf index out of range");
    MerkleProof proof;
    size_t idx = leaf_index;
    // Walk up until the cap level.
    for (size_t lvl = 0; lvl + 1 < levels_.size(); ++lvl) {
        proof.siblings.push_back(levels_[lvl][idx ^ 1]);
        idx >>= 1;
    }
    return proof;
}

bool
MerkleTree::verifyBatch(const std::vector<Fp> *const *leaves,
                        const size_t *indices,
                        const MerkleProof *const *proofs, size_t n,
                        const MerkleCap &cap, uint32_t height)
{
    // The path length is protocol-determined, not prover-determined: a
    // truncated siblings vector would let an interior digest presented
    // as "leaf data" stop early and match a legitimate cap entry.
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
    hashOrNoopBatch(leaves, n, nodes.data());
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
    const std::vector<Fp> *leaf = &leaf_data;
    const MerkleProof *path = &proof;
    return verifyBatch(&leaf, &leaf_index, &path, 1, cap, height);
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
