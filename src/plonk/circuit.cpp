#include "plonk/circuit.h"

#include "common/bits.h"
#include "common/logging.h"

namespace unizk {

Var
CircuitBuilder::newVar()
{
    return Var{num_vars++};
}

Var
CircuitBuilder::input()
{
    const Var v = newVar();
    input_vars.push_back(v.id);
    ++num_inputs;
    return v;
}

Var
CircuitBuilder::publicInput()
{
    const Var v = input();
    // Binding gate: qL = 1, everything else 0. The gate constraint on
    // this row is a + PI(row) = 0 with PI(row) = -value, so the wire
    // is pinned to the public value.
    public_rows.push_back(gates.size());
    public_input_positions.push_back(
        static_cast<uint32_t>(input_vars.size() - 1));
    gates.push_back(Gate{Fp::one(), Fp::zero(), Fp::zero(), Fp::zero(),
                         Fp::zero(), v, Var{}, Var{}});
    return v;
}

Var
CircuitBuilder::constant(Fp value)
{
    const Var v = newVar();
    // value - v = 0
    gates.push_back(Gate{Fp::zero(), Fp::zero(), Fp::one().neg(),
                         Fp::zero(), value, Var{}, Var{}, v});
    return v;
}

Var
CircuitBuilder::add(Var x, Var y)
{
    const Var v = newVar();
    gates.push_back(Gate{Fp::one(), Fp::one(), Fp::one().neg(), Fp::zero(),
                         Fp::zero(), x, y, v});
    return v;
}

Var
CircuitBuilder::sub(Var x, Var y)
{
    const Var v = newVar();
    gates.push_back(Gate{Fp::one(), Fp::one().neg(), Fp::one().neg(),
                         Fp::zero(), Fp::zero(), x, y, v});
    return v;
}

Var
CircuitBuilder::mul(Var x, Var y)
{
    const Var v = newVar();
    gates.push_back(Gate{Fp::zero(), Fp::zero(), Fp::one().neg(),
                         Fp::one(), Fp::zero(), x, y, v});
    return v;
}

Var
CircuitBuilder::linear(Fp cx, Var x, Fp cy, Var y, Fp k)
{
    const Var v = newVar();
    gates.push_back(
        Gate{cx, cy, Fp::one().neg(), Fp::zero(), k, x, y, v});
    return v;
}

Var
CircuitBuilder::mulAdd(Var x, Var y, Var z)
{
    return add(mul(x, y), z);
}

void
CircuitBuilder::assertConstant(Var x, Fp c)
{
    gates.push_back(Gate{Fp::one(), Fp::zero(), Fp::zero(), Fp::zero(),
                         c.neg(), x, Var{}, Var{}});
}

void
CircuitBuilder::assertEqual(Var x, Var y)
{
    gates.push_back(Gate{Fp::one(), Fp::one().neg(), Fp::zero(),
                         Fp::zero(), Fp::zero(), x, y, Var{}});
}

Circuit
CircuitBuilder::build(size_t min_rows) const
{
    Circuit c;
    c.gates = gates;
    c.input_vars = input_vars;
    c.public_rows = public_rows;
    c.num_vars = num_vars;
    c.n = nextPowerOfTwo(std::max(min_rows, gates.size()));

    // Every gate that defines an output wire has qO = -1, so its
    // output is c = qL*a + qR*b + qM*a*b + qC (fillWitness).
    for (const Gate &g : gates)
        unizk_assert(!g.c.isValid() || g.qO == Fp::one().neg(),
                     "gate with an output wire needs qO = -1");

    const size_t n = c.n;
    c.q_l.assign(n, Fp::zero());
    c.q_r.assign(n, Fp::zero());
    c.q_o.assign(n, Fp::zero());
    c.q_m.assign(n, Fp::zero());
    c.q_c.assign(n, Fp::zero());
    for (size_t i = 0; i < gates.size(); ++i) {
        c.q_l[i] = gates[i].qL;
        c.q_r[i] = gates[i].qR;
        c.q_o[i] = gates[i].qO;
        c.q_m[i] = gates[i].qM;
        c.q_c[i] = gates[i].qC;
    }

    // Copy constraints: each variable's slots form one cycle of sigma.
    c.sigma.resize(3 * n);
    for (size_t s = 0; s < 3 * n; ++s)
        c.sigma[s] = s; // identity for unused slots

    std::vector<std::vector<size_t>> var_slots(num_vars);
    for (size_t row = 0; row < gates.size(); ++row) {
        const Gate &g = gates[row];
        if (g.a.isValid())
            var_slots[g.a.id].push_back(0 * n + row);
        if (g.b.isValid())
            var_slots[g.b.id].push_back(1 * n + row);
        if (g.c.isValid())
            var_slots[g.c.id].push_back(2 * n + row);
    }
    for (const auto &slots : var_slots) {
        for (size_t i = 0; i + 1 < slots.size(); ++i)
            c.sigma[slots[i]] = slots[i + 1];
        if (slots.size() > 1)
            c.sigma[slots.back()] = slots.front();
    }
    return c;
}

std::array<std::vector<Fp>, 3>
Circuit::fillWitness(const std::vector<Fp> &inputs) const
{
    unizk_assert(inputs.size() == input_vars.size(),
                 "wrong number of witness inputs");
    std::vector<Fp> values(num_vars);
    std::vector<bool> defined(num_vars, false);
    for (size_t i = 0; i < inputs.size(); ++i) {
        values[input_vars[i]] = inputs[i];
        defined[input_vars[i]] = true;
    }

    auto slot_value = [&](Var v) -> Fp {
        if (!v.isValid())
            return Fp::zero();
        unizk_assert(defined[v.id], "gate uses undefined variable");
        return values[v.id];
    };

    std::vector<bool> is_public_row(gates.size(), false);
    for (const size_t row : public_rows)
        is_public_row[row] = true;

    size_t row_idx = 0;
    for (const Gate &g : gates) {
        const bool public_row = is_public_row[row_idx++];
        if (public_row) {
            // Public-input binding rows are satisfied through PI(X),
            // not through the bare gate constraint.
            (void)slot_value(g.a);
            continue;
        }
        const Fp a = slot_value(g.a);
        const Fp b = slot_value(g.b);
        const Fp partial = g.qL * a + g.qR * b + g.qM * a * b + g.qC;
        if (g.c.isValid() && !defined[g.c.id]) {
            // qO = -1 (asserted in build()): partial - c = 0.
            values[g.c.id] = partial;
            defined[g.c.id] = true;
        } else {
            const Fp cval = slot_value(g.c);
            unizk_assert((partial + g.qO * cval).isZero(),
                         "witness does not satisfy gate constraint");
        }
    }

    std::array<std::vector<Fp>, 3> wires;
    for (auto &col : wires)
        col.assign(n, Fp::zero());
    for (size_t row = 0; row < gates.size(); ++row) {
        const Gate &g = gates[row];
        if (g.a.isValid())
            wires[0][row] = values[g.a.id];
        if (g.b.isValid())
            wires[1][row] = values[g.b.id];
        if (g.c.isValid())
            wires[2][row] = values[g.c.id];
    }
    unizk_assert(checkWitness(wires), "filled witness fails check");
    return wires;
}

bool
Circuit::checkWitness(const std::array<std::vector<Fp>, 3> &wires) const
{
    std::vector<Fp> pi(n, Fp::zero());
    for (const size_t row : public_rows)
        pi[row] = wires[0][row].neg(); // PI(row) = -public value
    for (size_t i = 0; i < n; ++i) {
        const Fp a = wires[0][i];
        const Fp b = wires[1][i];
        const Fp c = wires[2][i];
        const Fp v = q_l[i] * a + q_r[i] * b + q_o[i] * c +
                     q_m[i] * a * b + q_c[i] + pi[i];
        if (!v.isZero())
            return false;
    }
    return true;
}

std::vector<Fp>
Circuit::publicValues(const std::array<std::vector<Fp>, 3> &wires) const
{
    std::vector<Fp> out;
    out.reserve(public_rows.size());
    for (const size_t row : public_rows)
        out.push_back(wires[0][row]);
    return out;
}

} // namespace unizk
