/**
 * @file
 * Arithmetic in the Goldilocks prime field F_p with p = 2^64 - 2^32 + 1.
 *
 * This is the base field used by Plonky2 and Starky. Its structure makes
 * modular reduction on 64-bit machines cheap:
 *
 *   2^64 === 2^32 - 1   (mod p)
 *   2^96 === -1         (mod p)
 *
 * so a 128-bit product reduces with a handful of adds/subtracts. The same
 * identities are what make the hardware modular multiplier in each UniZK
 * PE small (Section 4 of the paper).
 *
 * The multiplicative group has order p - 1 = 2^32 * 3 * 5 * 17 * 257 * 65537,
 * giving a 2-adicity of 32: subgroups of every power-of-two order up to 2^32
 * exist, which is what enables radix-2 NTTs on power-of-two domains.
 */

#ifndef UNIZK_FIELD_GOLDILOCKS_H
#define UNIZK_FIELD_GOLDILOCKS_H

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"

namespace unizk {

/**
 * An element of the Goldilocks field. Values are kept in canonical form
 * (less than the modulus) at all times.
 */
class Fp
{
  public:
    /** The Goldilocks prime, 2^64 - 2^32 + 1. */
    static constexpr uint64_t modulus = 0xFFFFFFFF00000001ULL;

    /** Generator of the full multiplicative group (order p - 1). */
    static constexpr uint64_t multiplicativeGenerator = 7;

    /** Largest k such that 2^k divides p - 1. */
    static constexpr uint32_t twoAdicity = 32;

    constexpr Fp() : val(0) {}

    /** Construct from an arbitrary 64-bit integer, reducing mod p. */
    constexpr explicit Fp(uint64_t v)
        : val(v >= modulus ? v - modulus : v)
    {}

    /** Canonical representative in [0, p). */
    constexpr uint64_t value() const { return val; }

    constexpr bool isZero() const { return val == 0; }
    constexpr bool isOne() const { return val == 1; }

    static constexpr Fp zero() { return Fp(); }
    static constexpr Fp one() { return Fp(1); }

    friend constexpr bool
    operator==(const Fp &a, const Fp &b)
    {
        return a.val == b.val;
    }

    friend constexpr bool
    operator!=(const Fp &a, const Fp &b)
    {
        return a.val != b.val;
    }

    friend constexpr Fp
    operator+(const Fp &a, const Fp &b)
    {
        uint64_t s = a.val + b.val;
        // On wraparound, 2^64 === 2^32 - 1 (mod p).
        if (s < a.val)
            s += 0xFFFFFFFFULL;
        if (s >= modulus)
            s -= modulus;
        return fromCanonical(s);
    }

    friend constexpr Fp
    operator-(const Fp &a, const Fp &b)
    {
        uint64_t d = a.val - b.val;
        if (a.val < b.val)
            d += modulus; // wraps: net effect is a - b + p
        return fromCanonical(d);
    }

    friend constexpr Fp
    operator*(const Fp &a, const Fp &b)
    {
        return fromCanonical(reduce128(
            static_cast<unsigned __int128>(a.val) * b.val));
    }

    constexpr Fp &
    operator+=(const Fp &o)
    {
        *this = *this + o;
        return *this;
    }

    constexpr Fp &
    operator-=(const Fp &o)
    {
        *this = *this - o;
        return *this;
    }

    constexpr Fp &
    operator*=(const Fp &o)
    {
        *this = *this * o;
        return *this;
    }

    /** Additive inverse. */
    constexpr Fp
    neg() const
    {
        return val == 0 ? Fp() : fromCanonical(modulus - val);
    }

    friend constexpr Fp operator-(const Fp &a) { return a.neg(); }

    /** a^e by square-and-multiply. */
    constexpr Fp
    pow(uint64_t e) const
    {
        Fp base = *this;
        Fp acc = Fp::one();
        while (e != 0) {
            if (e & 1)
                acc *= base;
            base = base.squared();
            e >>= 1;
        }
        return acc;
    }

    /**
     * Multiplicative inverse; panics on zero (fails the constant
     * evaluation when invoked at compile time).
     */
    constexpr Fp
    inverse() const
    {
        unizk_assert(!isZero(), "inverse of zero");
        // Fermat: a^(p-2) = a^-1.
        return pow(modulus - 2);
    }

    /** Doubling (slightly cheaper than generic add). */
    constexpr Fp doubled() const { return *this + *this; }

    /** Square. */
    constexpr Fp squared() const { return *this * *this; }

    /**
     * Primitive 2^k-th root of unity (k <= 32), i.e. a generator of the
     * multiplicative subgroup of order 2^k.
     */
    static constexpr Fp
    primitiveRootOfUnity(uint32_t log_n)
    {
        unizk_assert(log_n <= twoAdicity,
                     "requested root order exceeds 2^32");
        // g^( (p-1) / 2^32 ) generates the order-2^32 subgroup; squaring
        // log-many times reaches the requested order.
        Fp root =
            Fp(multiplicativeGenerator).pow((modulus - 1) >> twoAdicity);
        for (uint32_t i = twoAdicity; i > log_n; --i)
            root = root.squared();
        return root;
    }

    /** Reduce a 128-bit value modulo p. */
    static constexpr uint64_t
    reduce128(unsigned __int128 x)
    {
        uint64_t lo = static_cast<uint64_t>(x);
        const uint64_t hi = static_cast<uint64_t>(x >> 64);
        const uint64_t mid = hi & 0xFFFFFFFFULL; // coefficient of 2^64
        const uint64_t top = hi >> 32;           // coefficient of 2^96

        // x = lo + mid*2^64 + top*2^96 === lo + mid*(2^32-1) - top (mod p)
        uint64_t t0 = lo - top;
        if (lo < top)
            t0 -= 0xFFFFFFFFULL; // borrow wrapped by 2^64 === 2^32-1
        const uint64_t t1 = mid * 0xFFFFFFFFULL;
        uint64_t res = t0 + t1;
        if (res < t1)
            res += 0xFFFFFFFFULL;
        if (res >= modulus)
            res -= modulus;
        return res;
    }

  private:
    /** Wrap a value already known to be canonical. */
    static constexpr Fp
    fromCanonical(uint64_t v)
    {
        Fp f;
        f.val = v;
        return f;
    }

    uint64_t val;
};

std::ostream &operator<<(std::ostream &os, const Fp &f);

/** acc + wraps * 2^128 mod p, for a 128-bit sum that wrapped @p wraps
 *  times (2^128 === p - 2^32 mod p). */
inline Fp
fpReduceWide(unsigned __int128 acc, uint64_t wraps)
{
    Fp result = Fp(Fp::reduce128(acc));
    if (wraps)
        result += Fp(wraps) * Fp(Fp::modulus - (uint64_t{1} << 32));
    return result;
}

/**
 * Dot product with lazy reduction: accumulates the 128-bit products and
 * performs a single modular reduction at the end, counting 2^128
 * wraparounds (2^128 === p - 2^32 mod p). Each product is below 2^128,
 * so one add wraps an accumulator at most once and the count is exact
 * for rows of any length (the callers pass from one term up to 2^16).
 * Substantially faster than reducing every term; used by the scalar
 * Poseidon linear layers, the Stark quotient's alpha combination, the
 * FRI DEEP combination (DeepCombination) and the batch openings
 * (evalEachExt).
 */
inline Fp
fpDot(const Fp *a, const Fp *b, size_t n)
{
    // Two accumulators break the add-with-carry dependency chain.
    unsigned __int128 acc0 = 0, acc1 = 0;
    uint64_t wraps = 0;
    size_t i = 0;
    for (; i + 1 < n; i += 2) {
        const unsigned __int128 p0 =
            static_cast<unsigned __int128>(a[i].value()) * b[i].value();
        acc0 += p0;
        wraps += acc0 < p0; // 128-bit overflow
        const unsigned __int128 p1 =
            static_cast<unsigned __int128>(a[i + 1].value()) *
            b[i + 1].value();
        acc1 += p1;
        wraps += acc1 < p1;
    }
    if (i < n) {
        const unsigned __int128 p0 =
            static_cast<unsigned __int128>(a[i].value()) * b[i].value();
        acc0 += p0;
        wraps += acc0 < p0;
    }
    const unsigned __int128 acc = acc0 + acc1;
    wraps += acc < acc0;
    return fpReduceWide(acc, wraps);
}

/**
 * Batch inversion (Montgomery's trick): inverts every element of @p xs
 * with a single field inversion plus 3(n-1) multiplications. Zero elements
 * are not allowed.
 */
void batchInverse(std::vector<Fp> &xs);

/** Uniform random field element from a deterministic RNG. */
constexpr Fp
randomFp(SplitMix64 &rng)
{
    return Fp(rng.nextBelow(Fp::modulus));
}

/**
 * Sanctioned raw-arithmetic helpers. Protocol code sometimes needs the
 * canonical representative as an *integer* -- to draw a query index or to
 * count leading zero bits for proof-of-work grinding. Those are the only
 * places raw uint64_t math on Fp::value() is legitimate, so they live
 * here: everywhere outside src/field/, unizk_lint's fp-raw-arith rule
 * rejects direct arithmetic on value().
 * @{
 */

/** Map a field element to an index in [0, bound); bound must be nonzero. */
constexpr uint64_t
fpIndexBelow(Fp x, uint64_t bound)
{
    unizk_assert(bound != 0, "fpIndexBelow: empty range");
    return x.value() % bound;
}

/** The top @p bits bits of the canonical representative (1 <= bits <= 63). */
constexpr uint64_t
fpHighBits(Fp x, uint32_t bits)
{
    unizk_assert(bits >= 1 && bits <= 63, "fpHighBits: bad width");
    return x.value() >> (64 - bits);
}

/** @} */

} // namespace unizk

#endif // UNIZK_FIELD_GOLDILOCKS_H
