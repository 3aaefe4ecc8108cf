#include "hash/hashing.h"

#include <algorithm>

#include "common/bits.h"
#include "hash/goldilocks_simd.h"

namespace unizk {

namespace {

/** Copy the digest (capacity lanes 0..3) out of each batched state. */
void
extractDigests(const PoseidonState *states, size_t n, HashOut *out)
{
    for (size_t k = 0; k < n; ++k)
        for (size_t i = 0; i < 4; ++i)
            out[k].elems[i] = states[k][i];
}

/**
 * hashNoPad over @p n inputs, feeding runs of up to kSimdBatchWidth
 * equal-length inputs through Poseidon::permuteBatch.
 */
void
hashNoPadRuns(const std::vector<Fp> *const *inputs, size_t n, HashOut *out)
{
    const Poseidon &poseidon = Poseidon::instance();
    size_t i = 0;
    while (i < n) {
        // The absorption schedule (how many chunks, chunk sizes) is a
        // function of the input length, so only equal-length inputs can
        // share one batched permutation sequence.
        const size_t len = inputs[i]->size();
        size_t run = 1;
        while (run < kSimdBatchWidth && i + run < n &&
               inputs[i + run]->size() == len)
            ++run;
        PoseidonState states[kSimdBatchWidth] = {};
        size_t pos = 0;
        while (pos < len) {
            const size_t chunk =
                std::min<size_t>(PoseidonConfig::rate, len - pos);
            for (size_t k = 0; k < run; ++k)
                for (size_t j = 0; j < chunk; ++j)
                    states[k][j] = (*inputs[i + k])[pos + j];
            poseidon.permuteBatch(states, run);
            pos += chunk;
        }
        if (len == 0)
            poseidon.permuteBatch(states, run);
        extractDigests(states, run, &out[i]);
        i += run;
    }
}

/**
 * Hand @p n contiguous inputs to a pointer-array entry point, a stack
 * block of pointers at a time. The block is a multiple of
 * kSimdBatchWidth, so equal-length inputs still fill whole batches.
 */
template <typename PointerFn>
void
forwardAsPointers(const std::vector<Fp> *inputs, size_t n, HashOut *out,
                  PointerFn fn)
{
    constexpr size_t kBlock = 16 * kSimdBatchWidth;
    const std::vector<Fp> *ptrs[kBlock];
    for (size_t i = 0; i < n; i += kBlock) {
        const size_t m = std::min(kBlock, n - i);
        for (size_t k = 0; k < m; ++k)
            ptrs[k] = &inputs[i + k];
        fn(ptrs, m, &out[i]);
    }
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

void
hashNoPadBatch(const std::vector<Fp> *inputs, size_t n, HashOut *out)
{
    forwardAsPointers(inputs, n, out, hashNoPadRuns);
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
        poseidon.permuteBatch(states, group);
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
    if (!inputs.empty() && inputs.size() <= 4) {
        HashOut out;
        for (size_t i = 0; i < inputs.size(); ++i)
            out.elems[i] = inputs[i];
        return out;
    }
    return hashNoPad(inputs);
}

void
hashOrNoopBatch(const std::vector<Fp> *const *leaves, size_t n,
                HashOut *out)
{
    size_t i = 0;
    while (i < n) {
        const size_t len = leaves[i]->size();
        if (len >= 1 && len <= 4) {
            // Noop path: no permutation, nothing to batch.
            out[i] = hashOrNoop(*leaves[i]);
            ++i;
            continue;
        }
        // Hashing path: hand the maximal run of hashing leaves to
        // hashNoPadRuns, which groups equal lengths internally.
        size_t run = 1;
        while (i + run < n) {
            const size_t l = leaves[i + run]->size();
            if (l >= 1 && l <= 4)
                break;
            ++run;
        }
        hashNoPadRuns(&leaves[i], run, &out[i]);
        i += run;
    }
}

void
hashOrNoopBatch(const std::vector<Fp> *leaves, size_t n, HashOut *out)
{
    forwardAsPointers(leaves, n, out,
                      [](const std::vector<Fp> *const *ptrs, size_t m,
                         HashOut *o) { hashOrNoopBatch(ptrs, m, o); });
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
    if (len >= 1 && len <= 4)
        return 0;
    return permutationCountForLength(len);
}

} // namespace unizk
