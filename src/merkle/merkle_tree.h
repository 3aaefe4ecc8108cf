/**
 * @file
 * Poseidon Merkle trees with a configurable cap, as used by Plonky2's
 * FRI commitments and described in Section 5.3 of the paper.
 *
 * Leaves (all committed polynomials at one evaluation point) are read
 * through a LeafView, and only digests are kept; leaves are absorbed
 * with the rate-8 sponge, interior nodes use the two-to-one
 * compression (4 elements per child + 4 zero pad). Instead of a single
 * root, the top `2^cap_height` nodes (the "cap") form the commitment,
 * shortening authentication paths.
 *
 * Nodes are stored in one level-order buffer, from the leaf digests up
 * to the cap -- the layout the paper points out gives long sequential
 * memory accesses during construction.
 */

#ifndef UNIZK_MERKLE_MERKLE_TREE_H
#define UNIZK_MERKLE_MERKLE_TREE_H

#include <cstdint>
#include <vector>

#include "hash/hashing.h"

namespace unizk {

/** Authentication path from one leaf up to the cap. */
struct MerkleProof
{
    std::vector<HashOut> siblings;
};

/** A Merkle cap: the digests at height cap_height from the root. */
using MerkleCap = std::vector<HashOut>;

class MerkleTree
{
  public:
    /**
     * Build a tree over @p leaves (count must be a power of two and at
     * least 2^cap_height). The view is read during construction only.
     */
    MerkleTree(const LeafView &leaves, uint32_t cap_height);

    size_t leafCount() const { return leaf_count_; }
    uint32_t capHeight() const { return cap_height_; }

    /** The commitment: 2^cap_height digests. */
    const MerkleCap &cap() const { return cap_; }

    /** Authentication path for @p leaf_index. */
    MerkleProof prove(size_t leaf_index) const;

    /**
     * Verify the openings of one committed tree against @p cap: opening
     * i claims that leaf i of @p leaves sits at index indices[i],
     * authenticated by proofs[i], for i < leaves.count. True iff every
     * opening verifies.
     * @param height log2 of the committed tree's leaf count; the
     *        verifier knows it from protocol context (e.g. the FRI
     *        domain size). Proofs whose length differs from
     *        height - cap_height are rejected: accepting shorter paths
     *        would let an interior node masquerade as a leaf.
     * The leaves go through hashLeaves, as they did when the tree was
     * built, and each level of all paths through one hashTwoToOneBatch
     * call.
     */
    static bool verifyBatch(const LeafView &leaves, const size_t *indices,
                            const MerkleProof *const *proofs,
                            const MerkleCap &cap, uint32_t height);

    /** verifyBatch for a single opening. */
    static bool verify(const std::vector<Fp> &leaf_data, size_t leaf_index,
                       const MerkleProof &proof, const MerkleCap &cap,
                       uint32_t height);

    /**
     * Total Poseidon permutations a build performs, for cost accounting:
     * leaf absorption plus one per interior node below the cap.
     */
    static size_t permutationCount(size_t leaf_count, size_t leaf_len,
                                   uint32_t cap_height);

  private:
    /** Offset in nodes_ of level @p l, which holds leafCount() >> l. */
    size_t
    levelOffset(uint32_t l) const
    {
        return 2 * (leaf_count_ - (leaf_count_ >> l));
    }

    size_t leaf_count_;
    uint32_t cap_height_;
    // Level order: the leaf digests, then each level above them, up to
    // and including the cap level.
    std::vector<HashOut> nodes_;
    MerkleCap cap_;
};

} // namespace unizk

#endif // UNIZK_MERKLE_MERKLE_TREE_H
