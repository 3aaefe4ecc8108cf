/**
 * @file
 * Selector-based Plonk circuits with copy constraints, the PIOP front
 * end of the paper's Figure 1 (left).
 *
 * A circuit is a table of gates. Each gate row enforces
 *
 *     qL*a + qR*b + qO*c + qM*a*b + qC = 0
 *
 * over its three wire slots (a, b, c), and the copy constraints wire
 * gate outputs to gate inputs through the permutation sigma over the
 * 3n slots, exactly the (Q, W, sigma) construction in the paper.
 *
 * To reproduce the wide execution traces of real Plonky2 workloads
 * (circuit width ~135, Section 7.1), the prover supports *repetitions*:
 * R independent witness instances of the same circuit are batched
 * column-wise into one proof, giving 3R committed wire polynomials.
 */

#ifndef UNIZK_PLONK_CIRCUIT_H
#define UNIZK_PLONK_CIRCUIT_H

#include <array>
#include <cstdint>
#include <vector>

#include "field/goldilocks.h"

namespace unizk {

/** Handle to a circuit variable. */
struct Var
{
    uint32_t id = UINT32_MAX;

    bool isValid() const { return id != UINT32_MAX; }
};

/** Wire slot columns. */
enum class WireCol : uint32_t
{
    A = 0,
    B = 1,
    C = 2,
};

/** One gate row: selector values plus the variables in its slots. */
struct Gate
{
    Fp qL, qR, qO, qM, qC;
    Var a, b, c; ///< invalid vars denote unused slots (value 0)
};

class Circuit;

/**
 * Incrementally builds a circuit. Typical use:
 *
 *   CircuitBuilder b;
 *   Var x = b.input();
 *   Var y = b.mul(x, x);
 *   b.assertConstant(y, Fp(49));
 *   Circuit circuit = b.build();
 */
class CircuitBuilder
{
  public:
    /** Fresh private-input variable (value supplied at witness time). */
    Var input();

    /**
     * Public-input variable: supplied with the witness like input(),
     * but its value is part of the *statement* -- it is exposed in the
     * proof and checked by the verifier through the public-input
     * polynomial PI(X). Implemented as a dedicated binding gate whose
     * row carries the PI contribution.
     */
    Var publicInput();

    /** Variable pinned to a constant via a constraint gate. */
    Var constant(Fp value);

    /** x + y. */
    Var add(Var x, Var y);

    /** x - y. */
    Var sub(Var x, Var y);

    /** x * y. */
    Var mul(Var x, Var y);

    /** cx * x + cy * y + k (one linear gate). */
    Var linear(Fp cx, Var x, Fp cy, Var y, Fp k);

    /** x * y + z (two gates). */
    Var mulAdd(Var x, Var y, Var z);

    /** Constrain x == c. */
    void assertConstant(Var x, Fp c);

    /** Constrain x == y (copy constraint through an equality gate). */
    void assertEqual(Var x, Var y);

    size_t gateCount() const { return gates.size(); }
    size_t inputCount() const { return num_inputs; }
    size_t variableCount() const { return num_vars; }

    /** Finalize: pads to a power of two (at least @p min_rows). */
    Circuit build(size_t min_rows = 4) const;

  private:
    friend class Circuit;

    Var newVar();

    uint32_t num_vars = 0;
    uint32_t num_inputs = 0;
    std::vector<uint32_t> input_vars; ///< ids of input variables in order
    std::vector<size_t> public_rows;  ///< gate rows binding public inputs
    std::vector<uint32_t> public_input_positions; ///< index into inputs
    std::vector<Gate> gates;
};

/**
 * A finalized circuit: selector columns, the slot permutation, and the
 * gate list used to evaluate witnesses.
 */
class Circuit
{
  public:
    /** Number of rows n (power of two). */
    size_t rows() const { return n; }

    size_t inputCount() const { return input_vars.size(); }

    const std::vector<Fp> &selQL() const { return q_l; }
    const std::vector<Fp> &selQR() const { return q_r; }
    const std::vector<Fp> &selQO() const { return q_o; }
    const std::vector<Fp> &selQM() const { return q_m; }
    const std::vector<Fp> &selQC() const { return q_c; }

    /**
     * The permutation over the 3n slots, as slot indices: slot s maps
     * to permutation[s]. Slot index = col * n + row.
     */
    const std::vector<size_t> &permutation() const { return sigma; }

    /** Gate rows carrying public-input bindings, in declaration order. */
    const std::vector<size_t> &publicRows() const { return public_rows; }

    /** The unpadded gates, in row order. */
    const std::vector<Gate> &gateList() const { return gates; }

    /** Ids of the input variables, in the order fillWitness takes them. */
    const std::vector<uint32_t> &inputVars() const { return input_vars; }

    /**
     * Extract the public-input values from filled wire columns (the
     * a-slot of each public row).
     */
    std::vector<Fp>
    publicValues(const std::array<std::vector<Fp>, 3> &wires) const;

    /**
     * Fill a witness: evaluates every gate given the input values.
     * @return the three wire columns (a, b, c), each of length n.
     * Panics if the witness does not satisfy the circuit.
     */
    std::array<std::vector<Fp>, 3>
    fillWitness(const std::vector<Fp> &inputs) const;

    /** Check that wire columns satisfy all gate constraints. */
    bool checkWitness(const std::array<std::vector<Fp>, 3> &wires) const;

  private:
    friend class CircuitBuilder;

    size_t n = 0;
    std::vector<Fp> q_l, q_r, q_o, q_m, q_c;
    std::vector<size_t> sigma;
    std::vector<size_t> public_rows;
    std::vector<Gate> gates; ///< unpadded gate list
    std::vector<uint32_t> input_vars;
    uint32_t num_vars = 0;
};

} // namespace unizk

#endif // UNIZK_PLONK_CIRCUIT_H
