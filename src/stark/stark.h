/**
 * @file
 * STARK proving over Algebraic Execution Traces -- the "mini-Starky"
 * protocol (paper Section 2.2, Figure 2).
 *
 * The computation is a table ("trace") with one column per register and
 * one row per time step. An AIR (algebraic intermediate representation)
 * supplies:
 *   - transition constraints T_i(local_row, next_row) that must vanish
 *     on every row except the last, and
 *   - boundary constraints pinning individual cells of the first or
 *     last row (the input/output constraints of Figure 2).
 *
 * The prover commits the trace columns, combines all constraints with
 * powers of a challenge into a quotient by the appropriate vanishing
 * polynomials, commits the quotient, and opens everything at zeta and
 * w*zeta under batched FRI -- the same FRI component Plonky2 uses, with
 * a blowup factor of 2 in the Starky configuration.
 */

#ifndef UNIZK_STARK_STARK_H
#define UNIZK_STARK_STARK_H

#include <vector>

#include "fri/fri.h"

namespace unizk {

/** Pin trace cell (column, first-or-last row) to a public value. */
struct BoundaryConstraint
{
    size_t column = 0;
    bool lastRow = false;
    Fp value;
};

/** Constraint system interface implemented by each workload. */
class StarkAir
{
  public:
    virtual ~StarkAir() = default;

    /** Number of trace columns. */
    virtual size_t numColumns() const = 0;

    /** Number of transition constraints. */
    virtual size_t numConstraints() const = 0;

    /**
     * Maximum total degree of any transition constraint in the trace
     * cells (e.g. 2 if constraints multiply two cells).
     */
    virtual uint32_t constraintDegree() const { return 2; }

    /**
     * Evaluate all transition constraints on base-field rows (prover,
     * pointwise over the LDE domain).
     */
    virtual void evalTransition(const std::vector<Fp> &local,
                                const std::vector<Fp> &next,
                                std::vector<Fp> &out) const = 0;

    /** Same formulas over the extension field (verifier, at zeta). */
    virtual void evalTransitionExt(const std::vector<Fp2> &local,
                                   const std::vector<Fp2> &next,
                                   std::vector<Fp2> &out) const = 0;

    /** Boundary constraints (public input/output bindings). */
    virtual std::vector<BoundaryConstraint> boundaries() const = 0;

    /** Verify a trace directly (testing helper). */
    bool checkTrace(const std::vector<std::vector<Fp>> &columns) const;
};

struct StarkProof
{
    MerkleCap traceCap;
    MerkleCap quotientCap;
    /** openings[j][k]: flattened poly k at point j (0: zeta, 1: w*zeta). */
    std::vector<std::vector<Fp2>> openings;
    FriProof fri;
    size_t rows = 0;
    size_t columns = 0;
    size_t quotientChunks = 0;

    size_t byteSize() const;
};

/**
 * Prove that @p columns (column-major trace, power-of-two rows)
 * satisfies @p air.
 */
StarkProof starkProve(const StarkAir &air,
                      const std::vector<std::vector<Fp>> &columns,
                      const FriConfig &cfg, const ProverContext &ctx);

bool starkVerify(const StarkAir &air, const StarkProof &proof,
                 const FriConfig &cfg);

/**
 * The combined constraint quotient of @p air with challenge @p alpha on
 * the coset shift * K of n << q_bits points, stored bit-reversed: out[s]
 * at the point whose trace row is trace.leaf(s), such as the committed
 * LDE's prefix (DESIGN.md §6.11).
 */
void starkQuotientValues(const StarkAir &air, const LeafView &trace,
                         size_t n, uint32_t q_bits, Fp shift, Fp alpha,
                         Fp *out);

} // namespace unizk

#endif // UNIZK_STARK_STARK_H
