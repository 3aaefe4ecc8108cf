/**
 * @file
 * Poseidon Merkle trees with a configurable cap, as used by Plonky2's
 * FRI commitments and described in Section 5.3 of the paper.
 *
 * Leaves are vectors of field elements (one column-slice of all
 * committed polynomials at a given evaluation point); leaf values are
 * absorbed with the rate-8 sponge, interior nodes use the two-to-one
 * compression (4 elements per child + 4 zero pad). Instead of a single
 * root, the top `2^cap_height` nodes (the "cap") form the commitment,
 * shortening authentication paths.
 *
 * Node storage follows level order -- the layout the paper points out
 * gives long sequential memory accesses during construction.
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

    size_t
    byteSize() const
    {
        return siblings.size() * HashOut::byteSize();
    }
};

/** A Merkle cap: the digests at height cap_height from the root. */
using MerkleCap = std::vector<HashOut>;

class MerkleTree
{
  public:
    /**
     * Build a tree over @p leaves (count must be a power of two and at
     * least 2^cap_height).
     */
    MerkleTree(std::vector<std::vector<Fp>> leaves, uint32_t cap_height);

    size_t leafCount() const { return leaves_.size(); }
    uint32_t capHeight() const { return cap_height_; }

    /** The commitment: 2^cap_height digests. */
    const MerkleCap &cap() const { return cap_; }

    /** Leaf data (needed when answering queries). */
    const std::vector<Fp> &leaf(size_t index) const;

    /** Authentication path for @p leaf_index. */
    MerkleProof prove(size_t leaf_index) const;

    /**
     * Verify @p n openings of one committed tree against @p cap: opening
     * i claims that leaves[i] sits at index indices[i], authenticated by
     * proofs[i]. True iff every opening verifies.
     * @param height log2 of the committed tree's leaf count; the
     *        verifier knows it from protocol context (e.g. the FRI
     *        domain size). Proofs whose length differs from
     *        height - cap_height are rejected: accepting shorter paths
     *        would let an interior node masquerade as a leaf.
     * The leaves go through hashOrNoopBatch, and each level of all n
     * paths through one hashTwoToOneBatch call.
     */
    static bool verifyBatch(const std::vector<Fp> *const *leaves,
                            const size_t *indices,
                            const MerkleProof *const *proofs, size_t n,
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
    std::vector<std::vector<Fp>> leaves_;
    uint32_t cap_height_;
    // levels_[0] = leaf digests; levels_[k] halves each step, stopping
    // at the cap level.
    std::vector<std::vector<HashOut>> levels_;
    MerkleCap cap_;
};

} // namespace unizk

#endif // UNIZK_MERKLE_MERKLE_TREE_H
