/**
 * @file
 * Digest type and sponge-mode hashing on top of the Poseidon
 * permutation, mirroring Plonky2's usage:
 *  - 4-element (256-bit) digests,
 *  - rate-8 overwrite-mode absorption for variable-length inputs
 *    (the "absorb method" the paper describes for long Merkle leaves),
 *  - a dedicated two-to-one compression for interior Merkle nodes:
 *    4 elements from each child plus 4 zero padding elements.
 */

#ifndef UNIZK_HASH_HASHING_H
#define UNIZK_HASH_HASHING_H

#include <array>
#include <cstdint>
#include <vector>

#include "hash/poseidon.h"

namespace unizk {

/** A 4-element Poseidon digest. */
struct HashOut
{
    std::array<Fp, 4> elems{};

    friend bool
    operator==(const HashOut &a, const HashOut &b)
    {
        return a.elems == b.elems;
    }

    friend bool
    operator!=(const HashOut &a, const HashOut &b)
    {
        return !(a == b);
    }

    /** Size of the digest in bytes (for proof-size accounting). */
    static constexpr size_t byteSize() { return 4 * sizeof(uint64_t); }
};

/**
 * Hash a sequence of field elements with rate-8 overwrite absorption and
 * no padding (lengths are fixed by the protocol context, as in Plonky2's
 * hash_no_pad).
 */
HashOut hashNoPad(const std::vector<Fp> &inputs);

/**
 * Hash @p n inputs into @p out, feeding runs of up to kSimdBatchWidth
 * equal-length inputs through Poseidon::permuteBatch (shared
 * absorption schedule, lane-parallel permutations). Digests are
 * byte-identical to n hashNoPad calls at every SIMD dispatch level;
 * shorter runs (mixed lengths, tails) take permuteBatch's tail path.
 */
void hashNoPadBatch(const std::vector<Fp> *inputs, size_t n,
                    HashOut *out);

/** Compress two digests into one (interior Merkle node). */
HashOut hashTwoToOne(const HashOut &left, const HashOut &right);

/**
 * Compress @p pair_count digest pairs: out[i] = H(children[2i],
 * children[2i+1]), batching kSimdBatchWidth sponges per permutation.
 * This is the interior-Merkle-level entry point; results are
 * byte-identical to pair_count hashTwoToOne calls.
 */
void hashTwoToOneBatch(const HashOut *children, size_t pair_count,
                       HashOut *out);

/**
 * Hash if the input is longer than a digest, otherwise pack directly
 * (Plonky2's hash_or_noop used for short Merkle leaves). The noop path
 * covers lengths 1..4 only: an *empty* input falls through to
 * hashNoPad (one permutation), both so the accounting in
 * hashOrNoopPermutationCount matches the executed permutations and so
 * an empty leaf cannot collide with the all-zero length-4 leaf.
 */
HashOut hashOrNoop(const std::vector<Fp> &inputs);

/**
 * Hash @p n leaves into @p out as hashOrNoop would, batching runs of
 * hashing-path leaves as hashNoPadBatch does; noop-path leaves (length
 * 1..4) are packed directly. The Merkle leaf-level entry point. The
 * pointer-array form hashes leaves that are not contiguous in memory
 * (a verifier's opened values) without copying them; the contiguous
 * form forwards to it.
 * @{
 */
void hashOrNoopBatch(const std::vector<Fp> *const *leaves, size_t n,
                     HashOut *out);
void hashOrNoopBatch(const std::vector<Fp> *leaves, size_t n,
                     HashOut *out);
/** @} */

/**
 * Number of Poseidon permutations hashNoPad performs on an input of
 * @p len elements. Exposed so the trace layer and cost models count
 * hashes identically to the implementation.
 */
size_t permutationCountForLength(size_t len);

/**
 * Number of Poseidon permutations hashOrNoop performs on an input of
 * @p len elements: 0 on the noop path (1 <= len <= 4), otherwise
 * exactly permutationCountForLength(len). MerkleTree::permutationCount
 * delegates here so simulator kernel-op accounting can never drift
 * from the executed hash count again.
 */
size_t hashOrNoopPermutationCount(size_t len);

} // namespace unizk

#endif // UNIZK_HASH_HASHING_H
