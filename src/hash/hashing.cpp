#include "hash/hashing.h"

#include <algorithm>

#include "common/bits.h"
#include "field/goldilocks_simd.h"

namespace unizk {

namespace {

/** State lanes 0..3 hold the digest. */
constexpr uint32_t kDigestLanes = 4;

/** Copy the digest out of each batched state. */
void
extractDigests(const PoseidonState *states, size_t n, HashOut *out)
{
    for (size_t k = 0; k < n; ++k)
        for (size_t i = 0; i < kDigestLanes; ++i)
            out[k].elems[i] = states[k][i];
}

/** True for the lengths hashOrNoop packs instead of hashing. */
bool
isNoopLength(size_t len)
{
    return len >= 1 && len <= 4;
}

} // namespace

HashOut
hashNoPad(const std::vector<Fp> &inputs)
{
    const Poseidon &poseidon = Poseidon::instance();
    PoseidonState state{};
    size_t pos = 0;
    while (pos < inputs.size()) {
        const size_t chunk =
            std::min<size_t>(PoseidonConfig::rate, inputs.size() - pos);
        // Overwrite-mode absorption, as in Plonky2.
        for (size_t i = 0; i < chunk; ++i)
            state[i] = inputs[pos + i];
        poseidon.permute(state);
        pos += chunk;
    }
    if (inputs.empty())
        poseidon.permute(state);

    HashOut out;
    for (size_t i = 0; i < 4; ++i)
        out.elems[i] = state[i];
    return out;
}

HashOut
hashTwoToOne(const HashOut &left, const HashOut &right)
{
    const Poseidon &poseidon = Poseidon::instance();
    PoseidonState state{};
    for (size_t i = 0; i < 4; ++i) {
        state[i] = left.elems[i];
        state[4 + i] = right.elems[i];
    }
    // Lanes 8..11 stay zero: the 4-element zero padding from the paper.
    poseidon.permute(state);

    HashOut out;
    for (size_t i = 0; i < 4; ++i)
        out.elems[i] = state[i];
    return out;
}

void
hashTwoToOneBatch(const HashOut *children, size_t pair_count,
                  HashOut *out)
{
    const Poseidon &poseidon = Poseidon::instance();
    for (size_t i = 0; i < pair_count; i += kSimdBatchWidth) {
        // The last group may be short; permuteBatch takes any count.
        const size_t group = std::min(kSimdBatchWidth, pair_count - i);
        PoseidonState states[kSimdBatchWidth] = {};
        for (size_t k = 0; k < group; ++k) {
            const HashOut &left = children[2 * (i + k)];
            const HashOut &right = children[2 * (i + k) + 1];
            for (size_t j = 0; j < 4; ++j) {
                states[k][j] = left.elems[j];
                states[k][4 + j] = right.elems[j];
            }
        }
        poseidon.permuteBatch(states, group, 0, kDigestLanes);
        extractDigests(states, group, &out[i]);
    }
}

HashOut
hashOrNoop(const std::vector<Fp> &inputs)
{
    // Noop packing covers 1..4 elements only. Length 0 must *hash*:
    // hashOrNoopPermutationCount charges the empty input one
    // permutation (matching hashNoPad), and packing it would make the
    // empty leaf collide with the all-zero length-4 leaf.
    if (isNoopLength(inputs.size())) {
        HashOut out;
        for (size_t i = 0; i < inputs.size(); ++i)
            out.elems[i] = inputs[i];
        return out;
    }
    return hashNoPad(inputs);
}

void
hashLeaves(const LeafView &view, size_t lo, size_t hi, HashOut *out)
{
    const size_t len = view.width;
    if (isNoopLength(len)) {
        for (size_t i = lo; i < hi; ++i) {
            HashOut &digest = out[i - lo];
            digest = HashOut{};
            for (size_t j = 0; j < len; ++j)
                digest.elems[j] = view.at(i, j);
        }
        return;
    }
    // Up to kSimdBatchWidth sponges share one absorption schedule. Each
    // permutation computes only the lanes read next: those the next
    // chunk does not overwrite, or the digest after the last chunk. An
    // empty leaf runs the loop once, permuting the zero state.
    const Poseidon &poseidon = Poseidon::instance();
    for (size_t i = lo; i < hi; i += kSimdBatchWidth) {
        const size_t run = std::min(kSimdBatchWidth, hi - i);
        PoseidonState states[kSimdBatchWidth] = {};
        size_t pos = 0;
        do {
            const size_t chunk =
                std::min<size_t>(PoseidonConfig::rate, len - pos);
            for (size_t j = 0; j < chunk; ++j)
                for (size_t k = 0; k < run; ++k)
                    states[k][j] = view.at(i + k, pos + j);
            pos += chunk;
            const auto next = static_cast<uint32_t>(
                std::min<size_t>(PoseidonConfig::rate, len - pos));
            if (next == 0)
                poseidon.permuteBatch(states, run, 0, kDigestLanes);
            else
                poseidon.permuteBatch(states, run, next,
                                      PoseidonConfig::width);
        } while (pos < len);
        extractDigests(states, run, &out[i - lo]);
    }
}

size_t
permutationCountForLength(size_t len)
{
    if (len == 0)
        return 1;
    return ceilDiv(len, PoseidonConfig::rate);
}

size_t
hashOrNoopPermutationCount(size_t len)
{
    if (isNoopLength(len))
        return 0;
    return permutationCountForLength(len);
}

} // namespace unizk
