/**
 * @file
 * Fiat-Shamir transcript ("challenger") built on a Poseidon duplex
 * sponge, as used in Plonky2. The prover and verifier each run an
 * identical challenger; every message the prover would send in the
 * interactive protocol is observed into the sponge, and verifier
 * randomness is squeezed out. This is the "Get Challenges" node of the
 * computation graph in Figure 7 of the paper and accounts for the
 * "Other Hash" column of Table 1.
 */

#ifndef UNIZK_HASH_CHALLENGER_H
#define UNIZK_HASH_CHALLENGER_H

#include <cstdint>
#include <vector>

#include "field/extension.h"
#include "hash/hashing.h"
#include "hash/poseidon.h"

namespace unizk {

/** Duplex-sponge transcript. */
class Challenger
{
  public:
    Challenger();

    /** Absorb one field element. */
    void observe(Fp x);

    /** Absorb a digest (its 4 elements). */
    void observe(const HashOut &h);

    /** Absorb a batch of elements. */
    void observe(const std::vector<Fp> &xs);

    /** Squeeze one base-field challenge. */
    Fp challenge();

    /** Squeeze one extension-field challenge. */
    Fp2 challengeExt();

    /** Squeeze @p n base-field challenges. */
    std::vector<Fp> challenges(size_t n);

    /**
     * Poseidon permutations since the previous call (or construction),
     * so that the prover's trace can charge Fiat-Shamir hashing (Table
     * 1's "Other Hash") to the step that ran it.
     */
    size_t
    takePermutations()
    {
        const size_t since = unrecorded_permutations;
        unrecorded_permutations = 0;
        return since;
    }

  private:
    void duplex();

    PoseidonState state{};
    std::vector<Fp> input_buffer;
    std::vector<Fp> output_buffer;
    size_t unrecorded_permutations = 0;
};

} // namespace unizk

#endif // UNIZK_HASH_CHALLENGER_H
