/**
 * @file
 * The sum-check protocol over multilinear polynomials -- the "new
 * primitive" the paper analyzes when discussing generality to other
 * ZKP protocols (Section 8.1, Algorithm 2). Spartan, Binius, and
 * Basefold all build on it.
 *
 * The prover holds the 2^n evaluations A of a multilinear polynomial P
 * over the boolean hypercube and convinces the verifier of
 * S = sum_x P(x). Each round sends the linear univariate
 * g_i(t) = sum over the remaining cube with the next variable fixed to
 * t (two values g_i(0), g_i(1) suffice), receives a challenge r_i, and
 * folds the table: A'[j] = A[2j] + r_i * (A[2j+1] - A[2j]) -- exactly
 * the dynamic-programming loop of Algorithm 2, whose vector-update and
 * vector-sum structure maps onto UniZK's vector mode and inter-PE
 * reduction links (modeled by SumCheckKernel in the simulator).
 */

#ifndef UNIZK_SUMCHECK_SUMCHECK_H
#define UNIZK_SUMCHECK_SUMCHECK_H

#include <vector>

#include "field/goldilocks.h"
#include "hash/challenger.h"
#include "trace/prover_context.h"

namespace unizk {

/** One round's message: g_i(0) and g_i(1). */
struct SumcheckRound
{
    Fp at0;
    Fp at1;
};

struct SumcheckProof
{
    Fp claimedSum;
    std::vector<SumcheckRound> rounds;
    /** P evaluated at the challenge point (checked against an oracle). */
    Fp finalEval;
};

/**
 * Run the prover on the evaluation table @p values (size 2^n).
 * Challenges come from @p challenger (Fiat-Shamir).
 */
SumcheckProof sumcheckProve(std::vector<Fp> values,
                            Challenger &challenger,
                            const ProverContext &ctx = {});

/**
 * Evaluate the multilinear extension of @p values at @p point
 * (point.size() == n). O(2^n); this is the verifier's oracle in tests
 * (a real deployment replaces it with a polynomial commitment opening).
 */
Fp multilinearEval(const std::vector<Fp> &values,
                   const std::vector<Fp> &point);

/**
 * Verify a sum-check proof. Returns the challenge point through
 * @p point_out so the caller can check proof.finalEval against its
 * oracle for P.
 */
bool sumcheckVerify(const SumcheckProof &proof, size_t log_size,
                    Challenger &challenger,
                    std::vector<Fp> *point_out = nullptr);

} // namespace unizk

#endif // UNIZK_SUMCHECK_SUMCHECK_H
