/**
 * @file
 * The Plonk PIOP with FRI commitments -- the "mini-Plonky2" protocol
 * (paper Fig. 1). Prover and verifier share the transcript layout and
 * the flattened polynomial ordering defined here.
 *
 * Committed batches, in transcript order:
 *   0. constants:  qL qR qO qM qC sigma0 sigma1 sigma2       (8 polys)
 *   1. wires:      a_r b_r c_r per repetition r              (3R polys)
 *   2. Z:          one permutation-argument polynomial per r (R polys)
 *   3. quotient:   4 chunks of the combined quotient t       (4 polys)
 *
 * All batches are opened at zeta and at w*zeta (w = subgroup generator),
 * then a single batched FRI proof certifies every opening.
 */

#ifndef UNIZK_PLONK_PLONK_H
#define UNIZK_PLONK_PLONK_H

#include <memory>
#include <vector>

#include "fri/fri.h"
#include "plonk/circuit.h"

namespace unizk {

/** Number of quotient chunks (degree bound of the quotient is 4n). */
constexpr size_t plonkQuotientChunks = 4;

/** Coset multipliers k_j separating the three wire columns. */
inline Fp
plonkCosetShift(size_t col)
{
    // k_0 = 1, k_1 = 7, k_2 = 49: distinct cosets of any power-of-two
    // subgroup since 7 generates the full multiplicative group.
    Fp k = Fp::one();
    for (size_t i = 0; i < col; ++i)
        k *= Fp(7);
    return k;
}

/** Preprocessed prover data: the committed circuit constants. */
struct PlonkProvingKey
{
    std::unique_ptr<PolynomialBatch> constants;
    std::array<std::vector<Fp>, 3> sigmaValues; ///< encoded, natural order
    size_t rows = 0;
};

/** Commit to the circuit's selector and sigma polynomials. */
PlonkProvingKey plonkSetup(const Circuit &circuit, const FriConfig &cfg,
                           const ProverContext &ctx);

struct PlonkProof
{
    MerkleCap wiresCap;
    MerkleCap zCap;
    MerkleCap quotientCap;
    /** Public-input values per repetition (part of the statement). */
    std::vector<std::vector<Fp>> publicInputs;
    /** openings[j][k]: flattened poly k at point j (0: zeta, 1: w*zeta). */
    std::vector<std::vector<Fp2>> openings;
    FriProof fri;
    size_t rows = 0;
    size_t repetitions = 0;
};

/**
 * Generate a proof for @p repetitions independent witnesses of
 * @p circuit (inputs[r] feeds repetition r).
 */
PlonkProof plonkProve(const Circuit &circuit, const PlonkProvingKey &key,
                      const std::vector<std::vector<Fp>> &inputs,
                      const FriConfig &cfg, const ProverContext &ctx);

/**
 * Verify. @p constants_cap is the commitment to the circuit constants
 * (from PlonkProvingKey::constants->cap(), distributed as the
 * verification key) and @p public_rows the circuit's public-input rows
 * (Circuit::publicRows()); the claimed public values live in
 * proof.publicInputs.
 */
bool plonkVerify(const MerkleCap &constants_cap, const PlonkProof &proof,
                 const FriConfig &cfg,
                 const std::vector<size_t> &public_rows = {});

} // namespace unizk

#endif // UNIZK_PLONK_PLONK_H
