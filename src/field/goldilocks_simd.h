/**
 * @file
 * Runtime-dispatched SIMD lane layer for the Goldilocks field: the one
 * vector substrate the Poseidon batch sponge, the NTT and the Plonk
 * quotient share (the CPU analog of the paper's unified
 * vector-systolic array, with a mapping per kernel class on top).
 *
 * Representation invariant (lazy reduction). Between operations a lane
 * may hold *any* 64-bit value congruent to the true result mod p; it is
 * canonicalized only when stored back to memory. Memory keeps holding
 * canonical Fp. The operations and their input contracts:
 *
 *   mul(a, b)        any a, b; lo - top + mid*(2^32 - 1) with the borrow
 *                    and carry fix-ups but no final subtract of p.
 *   square(a)        mul(a, a) with one partial product fewer.
 *   add(a, c)        c canonical, a any: a + c - 2^64 < c < p, so the
 *                    single + (2^32 - 1) fix-up cannot wrap again.
 *   sub(a, b)        b canonical, a any: a borrow means a < b < p, so
 *                    a - b + p lands in (0, p).
 *   mulAdd(a, b, c)  a + b*c summed into the 128-bit product before the
 *                    one reduction (b*c + a < 2^128 for any inputs), so
 *                    two lazy values are never added directly.
 *   dot(row, x, xh)  sum of row[j] * x[j] over n <= kLaneDotMaxTerms
 *                    lanes, reduced once (see FpLimbs).
 *   canonical(a)     a - p where a >= p; any 64-bit a.
 *
 * Two lane backends share that shape:
 *
 *  - FpVec4Scalar (here, always compiled): four uint64_t lanes with the
 *    same lazy formulas in scalar code. It is the portable fallback and
 *    the differential oracle for the vector backend.
 *  - FpVec4Avx2 (goldilocks_simd_avx2.h): four 64-bit lanes in one
 *    __m256i. mul/add/sub/mulAdd/canonical return the same raw lane
 *    values as the scalar backend; dot returns a congruent value.
 *
 * The generic kernels over those lane types (goldilocks_simd_kernels.h)
 * are instantiated once per backend into a LaneKernels table: the NTT
 * butterfly runs and element-wise scaling passes, plus raw lane-op hooks
 * for the differential tests. The Poseidon batch permutation
 * (hash/poseidon_batch.h) and the Plonk quotient kernel
 * (plonk/quotient_kernel.h) instantiate over the same lane types.
 *
 * Dispatch is decided once per process: the UNIZK_SIMD environment
 * variable ({auto, avx2, scalar}, parsed strictly through common/env.h)
 * overrides CPUID auto-detection, and governs the Poseidon batch path
 * and the NTT alike. Forcing a level the build or the CPU cannot
 * execute warns and falls back to scalar -- never crashes.
 *
 * Raw vector intrinsics are confined to src/field/goldilocks_simd*
 * (enforced by the raw-simd-intrinsic lint rule); everything else goes
 * through laneKernels(), Poseidon::permuteBatch and the hashing.h batch
 * entry points, which consult activeSimdLevel().
 */

#ifndef UNIZK_FIELD_GOLDILOCKS_SIMD_H
#define UNIZK_FIELD_GOLDILOCKS_SIMD_H

#include <cstddef>
#include <cstdint>

#include "field/goldilocks.h"

namespace unizk {

/** Number of lanes (sponge states, butterflies) one lane op advances. */
constexpr size_t kSimdBatchWidth = 4;

/**
 * Longest dot() row. Every limb x half product is below 2^54, so 16
 * column terms stay below 2^58 and the recombination below 2^64.
 */
constexpr size_t kLaneDotMaxTerms = 16;

/** Available SIMD dispatch levels, in increasing capability order. */
enum class SimdLevel
{
    Scalar,
    Avx2,
};

/** Human-readable name ("scalar" / "avx2") for logs and bench JSON. */
const char *simdLevelName(SimdLevel level);

/**
 * True when @p level can execute on this build *and* this CPU (the
 * backend was compiled in and CPUID reports the feature). Scalar is
 * always available.
 */
bool simdLevelAvailable(SimdLevel level);

/**
 * The level the lane kernels dispatch to. Selected once on first use:
 * UNIZK_SIMD={auto,avx2,scalar} when set (unknown spellings warn and
 * mean auto; forcing an unavailable level warns and falls back to
 * scalar), otherwise the best available level.
 */
SimdLevel activeSimdLevel();

/**
 * Override the dispatch level at runtime (test/bench hook, also behind
 * the bench_poseidon --simd flag). Returns false -- and changes
 * nothing -- when the level is unavailable on this host. Results are
 * identical at every level, so flipping it mid-run is always sound.
 */
bool setSimdLevel(SimdLevel level);

/**
 * A constant split into 22/22/20-bit limbs for dot():
 * value = l0 + l1 * 2^22 + l2 * 2^44. A limb times a 32-bit half of a
 * lane is below 2^54, so a column of kLaneDotMaxTerms such products
 * cannot wrap 64 bits. Split once, when a constant table is built.
 */
struct FpLimbs
{
    uint32_t l0 = 0;
    uint32_t l1 = 0;
    uint32_t l2 = 0;

    static constexpr FpLimbs
    split(Fp c)
    {
        const uint64_t v = c.value();
        constexpr uint64_t mask22 = (uint64_t{1} << 22) - 1;
        return {static_cast<uint32_t>(v & mask22),
                static_cast<uint32_t>((v >> 22) & mask22),
                static_cast<uint32_t>(v >> 44)};
    }

    constexpr uint64_t
    value() const
    {
        return uint64_t{l0} | (uint64_t{l1} << 22) | (uint64_t{l2} << 44);
    }
};

/**
 * Scalar forms of the lazy operations (file docs). Inputs and outputs
 * are raw 64-bit lane values; FpVec4Scalar applies them per lane, and
 * the AVX2 backend reproduces them bit for bit.
 */
namespace lazy {

constexpr uint64_t kEpsilon = 0xFFFFFFFFULL; ///< 2^64 mod p

/** Any 64-bit value to its canonical residue. */
constexpr uint64_t
canonical(uint64_t x)
{
    return x - (Fp::modulus & -static_cast<uint64_t>(x >= Fp::modulus));
}

/**
 * lo + mid*2^64 + top*2^96 === lo + mid*(2^32 - 1) - top, for
 * mid < 2^32 and top <= 2^64 - 2^32 + 1 (a borrowed lo - top is then
 * still >= 2^32 - 1, so the fold-back cannot wrap a second time). The
 * result is below 2^64 but not necessarily below p.
 */
constexpr uint64_t
reduceParts(uint64_t lo, uint64_t mid, uint64_t top)
{
    uint64_t t0 = lo - top;
    t0 -= kEpsilon & -static_cast<uint64_t>(lo < top);
    const uint64_t t1 = (mid << 32) - mid;
    uint64_t res = t0 + t1;
    res += kEpsilon & -static_cast<uint64_t>(res < t1);
    return res;
}

/** A 128-bit value, lazily reduced. */
constexpr uint64_t
reduce128(unsigned __int128 x)
{
    const auto hi = static_cast<uint64_t>(x >> 64);
    return reduceParts(static_cast<uint64_t>(x), hi & kEpsilon, hi >> 32);
}

constexpr uint64_t
mul(uint64_t a, uint64_t b)
{
    return reduce128(static_cast<unsigned __int128>(a) * b);
}

constexpr uint64_t
mulAdd(uint64_t a, uint64_t b, uint64_t c)
{
    return reduce128(static_cast<unsigned __int128>(b) * c + a);
}

/** a + c for canonical c. */
constexpr uint64_t
add(uint64_t a, uint64_t c)
{
    const uint64_t s = a + c;
    return s + (kEpsilon & -static_cast<uint64_t>(s < c));
}

/** a - b for canonical b. */
constexpr uint64_t
sub(uint64_t a, uint64_t b)
{
    return a - b + (Fp::modulus & -static_cast<uint64_t>(a < b));
}

} // namespace lazy

/**
 * Portable lane type: four uint64_t lanes holding lazily reduced
 * values. Shape-identical to FpVec4Avx2 so every kernel template
 * instantiates over either.
 */
struct FpVec4Scalar
{
    uint64_t lane[kSimdBatchWidth];

    /** Four consecutive canonical elements. */
    static FpVec4Scalar
    load(const Fp *p)
    {
        FpVec4Scalar out;
        for (size_t k = 0; k < kSimdBatchWidth; ++k)
            out.lane[k] = p[k].value();
        return out;
    }

    /** Store canonical residues of the lanes. */
    void
    store(Fp *p) const
    {
        for (size_t k = 0; k < kSimdBatchWidth; ++k)
            p[k] = Fp(lane[k]);
    }

    /** Arbitrary raw lane values (test hooks). */
    static FpVec4Scalar
    loadRaw(const uint64_t *p)
    {
        FpVec4Scalar out;
        for (size_t k = 0; k < kSimdBatchWidth; ++k)
            out.lane[k] = p[k];
        return out;
    }

    /** The raw (possibly non-canonical) lane values. */
    void
    storeRaw(uint64_t *p) const
    {
        for (size_t k = 0; k < kSimdBatchWidth; ++k)
            p[k] = lane[k];
    }

    /** The same constant in every lane. */
    static FpVec4Scalar
    broadcast(Fp x)
    {
        FpVec4Scalar out;
        for (auto &l : out.lane)
            l = x.value();
        return out;
    }

    template <typename Op>
    static FpVec4Scalar
    map(const FpVec4Scalar &a, const FpVec4Scalar &b, Op op)
    {
        FpVec4Scalar out;
        for (size_t k = 0; k < kSimdBatchWidth; ++k)
            out.lane[k] = op(a.lane[k], b.lane[k]);
        return out;
    }

    static FpVec4Scalar
    add(const FpVec4Scalar &a, const FpVec4Scalar &c)
    {
        return map(a, c, lazy::add);
    }

    static FpVec4Scalar
    sub(const FpVec4Scalar &a, const FpVec4Scalar &b)
    {
        return map(a, b, lazy::sub);
    }

    static FpVec4Scalar
    mul(const FpVec4Scalar &a, const FpVec4Scalar &b)
    {
        return map(a, b, lazy::mul);
    }

    static FpVec4Scalar square(const FpVec4Scalar &a) { return mul(a, a); }

    static FpVec4Scalar
    mulAdd(const FpVec4Scalar &a, const FpVec4Scalar &b,
           const FpVec4Scalar &c)
    {
        FpVec4Scalar out;
        for (size_t k = 0; k < kSimdBatchWidth; ++k)
            out.lane[k] = lazy::mulAdd(a.lane[k], b.lane[k], c.lane[k]);
        return out;
    }

    static FpVec4Scalar
    canonical(const FpVec4Scalar &a)
    {
        FpVec4Scalar out;
        for (size_t k = 0; k < kSimdBatchWidth; ++k)
            out.lane[k] = lazy::canonical(a.lane[k]);
        return out;
    }

    /** x >> 32 per lane: the high half dot() takes per term. */
    static FpVec4Scalar
    high(const FpVec4Scalar &x)
    {
        FpVec4Scalar out;
        for (size_t k = 0; k < kSimdBatchWidth; ++k)
            out.lane[k] = x.lane[k] >> 32;
        return out;
    }

    /**
     * sum_j row[j] * x[j] for n <= kLaneDotMaxTerms, reduced once. The
     * scalar form accumulates whole 128-bit products and counts 2^128
     * wraps; 2^128 = 2^96 * 2^32, so each wrap adds 2^32 to the 2^96
     * coefficient (at most 2^36 in all). @p xh is unused here; the AVX2
     * backend takes it precomputed.
     */
    static FpVec4Scalar
    dot(const FpLimbs *row, const FpVec4Scalar *x, const FpVec4Scalar *xh,
        size_t n)
    {
        (void)xh;
        FpVec4Scalar out;
        for (size_t k = 0; k < kSimdBatchWidth; ++k) {
            unsigned __int128 acc = 0;
            uint64_t wraps = 0;
            for (size_t j = 0; j < n; ++j) {
                const unsigned __int128 p =
                    static_cast<unsigned __int128>(row[j].value()) *
                    x[j].lane[k];
                acc += p;
                wraps += acc < p;
            }
            const auto hi = static_cast<uint64_t>(acc >> 64);
            out.lane[k] = lazy::reduceParts(
                static_cast<uint64_t>(acc), hi & lazy::kEpsilon,
                (hi >> 32) + (wraps << 32));
        }
        return out;
    }
};

/**
 * One backend's array kernels over canonical Fp memory, plus raw
 * lane-op hooks. Results are identical at every level (the field is
 * exact and stores canonicalize), so callers may switch freely.
 */
struct LaneKernels
{
    /**
     * NTT butterflies (lo[j], hi[j]) with twiddle tw[j], j < count:
     * DIF lo' = lo + hi, hi' = (lo - hi) * w; DIT lo' = lo + hi * w,
     * hi' = lo - hi * w.
     * @{
     */
    void (*difRun)(Fp *lo, Fp *hi, const Fp *tw, size_t count);
    void (*ditRun)(Fp *lo, Fp *hi, const Fp *tw, size_t count);
    /** @} */

    /**
     * One whole stage over @p n contiguous elements: blocks of 2*half,
     * butterfly j of every block reading tw[j].
     * @{
     */
    void (*difStage)(Fp *a, size_t n, size_t half, const Fp *tw);
    void (*ditStage)(Fp *a, size_t n, size_t half, const Fp *tw);
    /** @} */

    /** a[i] *= c. */
    void (*scale)(Fp *a, size_t count, Fp c);

    /** a[i] *= pows[i] * extra. */
    void (*scaleByTable)(Fp *a, const Fp *pows, Fp extra, size_t count);

    /**
     * dst[i] = src[i] * start[i % 4] * step4^(i / 4): a power chain run
     * four links at a time (start[k] = first * step^k, step4 = step^4).
     */
    void (*scaleByPowers)(Fp *dst, const Fp *src, size_t count,
                          const Fp *start, Fp step4);

    /**
     * Raw lane ops on four uint64_t lanes, for the differential tests:
     * each is the lazy operation of the same name (file docs).
     * @{
     */
    void (*mul)(const uint64_t *a, const uint64_t *b, uint64_t *out);
    void (*square)(const uint64_t *a, uint64_t *out);
    void (*add)(const uint64_t *a, const uint64_t *c, uint64_t *out);
    void (*sub)(const uint64_t *a, const uint64_t *b, uint64_t *out);
    void (*mulAdd)(const uint64_t *a, const uint64_t *b, const uint64_t *c,
                   uint64_t *out);
    void (*canonical)(const uint64_t *a, uint64_t *out);
    /** out = dot(row, x) with x[j * 4 + k] the lane-k value of term j. */
    void (*dot)(const FpLimbs *row, const uint64_t *x, size_t n,
                uint64_t *out);
    /** @} */
};

/** The kernels of @p level; the level must be available. */
const LaneKernels &laneKernels(SimdLevel level);

/** The kernels of activeSimdLevel(). */
inline const LaneKernels &
activeLaneKernels()
{
    return laneKernels(activeSimdLevel());
}

} // namespace unizk

#endif // UNIZK_FIELD_GOLDILOCKS_SIMD_H
