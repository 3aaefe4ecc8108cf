#include "hash/challenger.h"

#include "obs/obs.h"

namespace unizk {

Challenger::Challenger() = default;

void
Challenger::observe(Fp x)
{
    // New observations invalidate any cached output.
    output_buffer.clear();
    input_buffer.push_back(x);
    if (input_buffer.size() == PoseidonConfig::rate)
        duplex();
}

void
Challenger::observe(const HashOut &h)
{
    for (const Fp &x : h.elems)
        observe(x);
}

void
Challenger::observe(const std::vector<Fp> &xs)
{
    for (const Fp &x : xs)
        observe(x);
}

void
Challenger::duplex()
{
    // Overwrite-mode duplexing: splice pending inputs into the rate
    // portion, permute, and expose the rate portion as output.
    for (size_t i = 0; i < input_buffer.size(); ++i)
        state[i] = input_buffer[i];
    input_buffer.clear();
    Poseidon::instance().permute(state);
    ++unrecorded_permutations;
    UNIZK_COUNTER_ADD("challenger.permutations", 1);
    output_buffer.assign(state.begin(),
                         state.begin() + PoseidonConfig::rate);
}

Fp
Challenger::challenge()
{
    if (!input_buffer.empty() || output_buffer.empty())
        duplex();
    const Fp out = output_buffer.back();
    output_buffer.pop_back();
    return out;
}

Fp2
Challenger::challengeExt()
{
    const Fp a = challenge();
    const Fp b = challenge();
    return Fp2(a, b);
}

std::vector<Fp>
Challenger::challenges(size_t n)
{
    std::vector<Fp> out(n);
    for (auto &x : out)
        x = challenge();
    return out;
}

} // namespace unizk
