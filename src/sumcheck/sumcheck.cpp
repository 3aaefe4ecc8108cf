#include "sumcheck/sumcheck.h"

#include "common/bits.h"

namespace unizk {

SumcheckProof
sumcheckProve(std::vector<Fp> values, Challenger &challenger,
              const ProverContext &ctx)
{
    unizk_assert(isPowerOfTwo(values.size()), "table must be 2^n");
    const uint32_t n = log2Exact(values.size());

    SumcheckProof proof;
    {
        Fp sum;
        for (const Fp &v : values)
            sum += v;
        proof.claimedSum = sum;
    }
    challenger.observe(proof.claimedSum);

    ctx.record(SumCheckKernel{n}, "sum-check");
    const KernelScope scope(ctx, KernelClass::Polynomial, "sumcheck/rounds");
    for (uint32_t i = 0; i < n; ++i) {
        const size_t half = values.size() / 2;
        // g_i(0) = sum of even entries, g_i(1) = sum of odd entries
        // (Algorithm 2's "summing up the updated vector elements").
        SumcheckRound round;
        for (size_t j = 0; j < half; ++j) {
            round.at0 += values[2 * j];
            round.at1 += values[2 * j + 1];
        }
        proof.rounds.push_back(round);
        challenger.observe(round.at0);
        challenger.observe(round.at1);
        const Fp r = challenger.challenge();

        // Fold ("updating the vector itself").
        for (size_t j = 0; j < half; ++j) {
            values[j] =
                values[2 * j] + r * (values[2 * j + 1] - values[2 * j]);
        }
        values.resize(half);
    }
    proof.finalEval = values[0];
    return proof;
}

Fp
multilinearEval(const std::vector<Fp> &values,
                const std::vector<Fp> &point)
{
    unizk_assert(values.size() == size_t{1} << point.size(),
                 "point dimension mismatch");
    std::vector<Fp> table = values;
    for (const Fp &r : point) {
        const size_t half = table.size() / 2;
        for (size_t j = 0; j < half; ++j) {
            table[j] =
                table[2 * j] + r * (table[2 * j + 1] - table[2 * j]);
        }
        table.resize(half);
    }
    return table[0];
}

bool
sumcheckVerify(const SumcheckProof &proof, size_t log_size,
               Challenger &challenger, std::vector<Fp> *point_out)
{
    if (proof.rounds.size() != log_size)
        return false;
    challenger.observe(proof.claimedSum);

    Fp expected = proof.claimedSum;
    std::vector<Fp> point;
    for (const SumcheckRound &round : proof.rounds) {
        // g_i(0) + g_i(1) must equal the running claim.
        if (round.at0 + round.at1 != expected)
            return false;
        challenger.observe(round.at0);
        challenger.observe(round.at1);
        const Fp r = challenger.challenge();
        point.push_back(r);
        // Next claim: g_i(r) for the linear g_i.
        expected = round.at0 + r * (round.at1 - round.at0);
    }
    if (proof.finalEval != expected)
        return false;
    if (point_out)
        *point_out = std::move(point);
    return true;
}

} // namespace unizk
