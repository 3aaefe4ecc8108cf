/**
 * @file
 * Bit-manipulation helpers shared across the NTT library, the FRI prover,
 * and the hardware simulator.
 */

#ifndef UNIZK_COMMON_BITS_H
#define UNIZK_COMMON_BITS_H

#include <bit>
#include <cstdint>
#include <vector>

#include "common/logging.h"

namespace unizk {

/** True iff @p x is a power of two (0 is not). */
constexpr bool
isPowerOfTwo(uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

/** log2 of a power of two. Panics on non-powers. */
inline uint32_t
log2Exact(uint64_t x)
{
    unizk_assert(isPowerOfTwo(x), "log2Exact on non-power-of-two");
    return static_cast<uint32_t>(std::countr_zero(x));
}

/** Smallest power of two >= x (x must be nonzero). */
inline uint64_t
nextPowerOfTwo(uint64_t x)
{
    unizk_assert(x != 0, "nextPowerOfTwo(0)");
    return std::bit_ceil(x);
}

/** ceil(log2(x)) for x >= 1. */
inline uint32_t
ceilLog2(uint64_t x)
{
    return log2Exact(nextPowerOfTwo(x));
}

/** Reverse the low @p bits bits of @p x. */
inline uint64_t
reverseBits(uint64_t x, uint32_t bits)
{
    unizk_assert(bits <= 64, "reverseBits width too large");
    uint64_t r = 0;
    for (uint32_t i = 0; i < bits; ++i) {
        r = (r << 1) | ((x >> i) & 1);
    }
    return r;
}

/** rev(rev(s) + rotation mod 2^bits): in a bit-reversed domain, where
 *  the point @p rotation natural steps past the one stored at s is. */
inline uint64_t
rotateBitReversed(uint64_t s, uint64_t rotation, uint32_t bits)
{
    const uint64_t mask = (uint64_t{1} << bits) - 1; // bits < 64 here
    return reverseBits((reverseBits(s, bits) + rotation) & mask, bits);
}

/** Permute a vector into bit-reversed index order in place. */
template <typename T>
void
bitReversePermute(std::vector<T> &v)
{
    unizk_assert(isPowerOfTwo(v.size()), "bit-reverse needs power-of-two");
    const uint32_t bits = log2Exact(v.size());
    for (uint64_t i = 0; i < v.size(); ++i) {
        const uint64_t j = reverseBits(i, bits);
        if (j > i)
            std::swap(v[i], v[j]);
    }
}

/** Integer ceiling division. */
constexpr uint64_t
ceilDiv(uint64_t a, uint64_t b)
{
    return (a + b - 1) / b;
}

} // namespace unizk

#endif // UNIZK_COMMON_BITS_H
