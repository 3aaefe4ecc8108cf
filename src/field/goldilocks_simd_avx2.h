/**
 * @file
 * AVX2 lane type of the Goldilocks lane layer: four lazily reduced
 * 64-bit lanes per __m256i, computing the formulas of goldilocks_simd.h's
 * `lazy` namespace with the identities
 *
 *   2^64 === 2^32 - 1 (mod p),   2^96 === -1 (mod p).
 *
 * AVX2 has no 64x64->128 multiply and no unsigned 64-bit compare, so
 *  - products are assembled from four 32x32 vpmuludq partial products
 *    (the textbook limb decomposition; every intermediate fits 64 bits),
 *  - unsigned compares bias both operands by 2^63 and use the signed
 *    vpcmpgtq (cmpGtU64 below),
 *  - the mid * (2^32 - 1) term of the reduction is (mid << 32) - mid,
 *  - dot() multiplies 22/22/20-bit constant limbs by 32-bit lane halves
 *    and sums six columns, reducing once per output (DESIGN.md, "Lane
 *    layer").
 *
 * mul/square/add/sub/mulAdd/canonical return exactly the raw lane values
 * of the scalar formulas; tests/test_field.cpp pins that on AVX2 hosts.
 *
 * Include this header only from TUs compiled with -mavx2 (per-file flag
 * in CMake), and run their code only after the CPUID check in
 * goldilocks_simd.cpp. With goldilocks_simd*.{h,cpp} it is the only
 * place raw intrinsics are allowed (raw-simd-intrinsic lint rule).
 */

#ifndef UNIZK_FIELD_GOLDILOCKS_SIMD_AVX2_H
#define UNIZK_FIELD_GOLDILOCKS_SIMD_AVX2_H

#if !defined(__AVX2__)
#error "goldilocks_simd_avx2.h needs a TU compiled with -mavx2"
#endif

#include <immintrin.h>

#include "field/goldilocks_simd.h"

namespace unizk {
namespace avx2 {

inline __m256i
splat(uint64_t x)
{
    return _mm256_set1_epi64x(static_cast<long long>(x));
}

/**
 * Sign-bit bias. XOR with it maps unsigned order onto signed order, and
 * since it equals adding 2^63 mod 2^64, add/sub commute with it: a
 * value can be carried "shifted" through a chain of adds and compared
 * with a single signed vpcmpgtq.
 */
inline __m256i
bias()
{
    return splat(0x8000000000000000ULL);
}

/** Lane mask: all ones where unsigned a > unsigned b. */
inline __m256i
cmpGtU64(__m256i a, __m256i b)
{
    return _mm256_cmpgt_epi64(_mm256_xor_si256(a, bias()),
                              _mm256_xor_si256(b, bias()));
}

/**
 * The high 32 bits of each lane, duplicated into both halves (a shuffle,
 * which keeps the shift ports free for vpmuludq). Only for use as a
 * vpmuludq operand, which reads the low half.
 */
inline __m256i
high32(__m256i x)
{
    return _mm256_castps_si256(_mm256_movehdup_ps(_mm256_castsi256_ps(x)));
}

/** lazy::canonical: subtract p where x >= p, i.e. x > p - 1. */
inline __m256i
canonical(__m256i x)
{
    const __m256i ge = _mm256_cmpgt_epi64(
        _mm256_xor_si256(x, bias()),
        splat((Fp::modulus - 1) ^ 0x8000000000000000ULL));
    return _mm256_sub_epi64(x, _mm256_and_si256(splat(Fp::modulus), ge));
}

/**
 * lazy::reduceParts with lo given shifted (lo ^ 2^63) and mid read from
 * the low 32 bits of @p mid. On shifted values a borrow of lo - top
 * shows as the difference exceeding lo, and a carry of t0 + t1 as the
 * sum falling below t0, each one signed compare; an all-ones mask
 * shifted right by 32 is exactly 2^32 - 1. mid * (2^32 - 1) < 2^64 is
 * one vpmuludq.
 */
inline __m256i
reducePartsShifted(__m256i lo_s, __m256i mid, __m256i top)
{
    __m256i t0_s = _mm256_sub_epi64(lo_s, top);
    t0_s = _mm256_sub_epi64(
        t0_s, _mm256_srli_epi64(_mm256_cmpgt_epi64(t0_s, lo_s), 32));
    const __m256i t1 = _mm256_mul_epu32(mid, splat(lazy::kEpsilon));
    __m256i res_s = _mm256_add_epi64(t0_s, t1);
    res_s = _mm256_add_epi64(
        res_s, _mm256_srli_epi64(_mm256_cmpgt_epi64(t0_s, res_s), 32));
    return _mm256_xor_si256(res_s, bias());
}

/**
 * The 128-bit product of a and b as (lo, hi) from the partials
 * ll = a_lo*b_lo, lh = a_lo*b_hi, hl = a_hi*b_lo, hh = a_hi*b_hi.
 * t0 = hl + (ll >> 32) and t1 = lh + lo32(t0) fit 64 bits:
 * (2^32 - 1)^2 + (2^32 - 1) < 2^64. lo takes its high half from t1's
 * low half with a shuffle and a blend.
 */
inline void
assemble(__m256i ll, __m256i lh, __m256i hl, __m256i hh, __m256i &lo,
         __m256i &hi)
{
    const __m256i t0 = _mm256_add_epi64(hl, _mm256_srli_epi64(ll, 32));
    const __m256i t1 = _mm256_add_epi64(
        lh, _mm256_and_si256(t0, splat(lazy::kEpsilon)));
    hi = _mm256_add_epi64(_mm256_add_epi64(hh, _mm256_srli_epi64(t0, 32)),
                          _mm256_srli_epi64(t1, 32));
    const __m256i t1_dup =
        _mm256_castps_si256(_mm256_moveldup_ps(_mm256_castsi256_ps(t1)));
    lo = _mm256_blend_epi32(ll, t1_dup, 0xAA);
}

inline void
mulWide(__m256i a, __m256i b, __m256i &lo, __m256i &hi)
{
    // vpmuludq reads the low 32 bits of each 64-bit lane.
    const __m256i a_hi = high32(a);
    const __m256i b_hi = high32(b);
    assemble(_mm256_mul_epu32(a, b), _mm256_mul_epu32(a, b_hi),
             _mm256_mul_epu32(a_hi, b), _mm256_mul_epu32(a_hi, b_hi), lo,
             hi);
}

/** lazy::reduce128 of lo + hi * 2^64. */
inline __m256i
reduceHiLo(__m256i lo, __m256i hi)
{
    return reducePartsShifted(_mm256_xor_si256(lo, bias()), hi,
                              _mm256_srli_epi64(hi, 32));
}

/** Four Goldilocks lanes in one AVX2 register; see FpVec4Scalar. */
struct FpVec4Avx2
{
    __m256i v;

    static FpVec4Avx2
    load(const Fp *p)
    {
        return {_mm256_loadu_si256(reinterpret_cast<const __m256i *>(p))};
    }

    void
    store(Fp *p) const
    {
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(p),
                            avx2::canonical(v));
    }

    static FpVec4Avx2
    loadRaw(const uint64_t *p)
    {
        return {_mm256_loadu_si256(reinterpret_cast<const __m256i *>(p))};
    }

    void
    storeRaw(uint64_t *p) const
    {
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), v);
    }

    static FpVec4Avx2
    broadcast(Fp x)
    {
        return {splat(x.value())};
    }

    /** lazy::add (c canonical). */
    static FpVec4Avx2
    add(const FpVec4Avx2 &a, const FpVec4Avx2 &c)
    {
        const __m256i s = _mm256_add_epi64(a.v, c.v);
        return {_mm256_add_epi64(
            s, _mm256_and_si256(splat(lazy::kEpsilon), cmpGtU64(c.v, s)))};
    }

    /** lazy::sub (b canonical). */
    static FpVec4Avx2
    sub(const FpVec4Avx2 &a, const FpVec4Avx2 &b)
    {
        const __m256i d = _mm256_sub_epi64(a.v, b.v);
        return {_mm256_add_epi64(
            d, _mm256_and_si256(splat(Fp::modulus), cmpGtU64(b.v, a.v)))};
    }

    static FpVec4Avx2
    mul(const FpVec4Avx2 &a, const FpVec4Avx2 &b)
    {
        __m256i lo, hi;
        mulWide(a.v, b.v, lo, hi);
        return {reduceHiLo(lo, hi)};
    }

    /** mul(a, a) with the two cross partials shared. */
    static FpVec4Avx2
    square(const FpVec4Avx2 &a)
    {
        const __m256i a_hi = high32(a.v);
        const __m256i lh = _mm256_mul_epu32(a.v, a_hi);
        __m256i lo, hi;
        assemble(_mm256_mul_epu32(a.v, a.v), lh, lh,
                 _mm256_mul_epu32(a_hi, a_hi), lo, hi);
        return {reduceHiLo(lo, hi)};
    }

    /**
     * lazy::mulAdd: a + b*c, with a added into the 128-bit product. The
     * product is at most (2^64 - 1)^2, so its high word is at most
     * 2^64 - 2 and absorbs the carry out of the low word.
     */
    static FpVec4Avx2
    mulAdd(const FpVec4Avx2 &a, const FpVec4Avx2 &b, const FpVec4Avx2 &c)
    {
        __m256i lo, hi;
        mulWide(b.v, c.v, lo, hi);
        const __m256i lo_s = _mm256_xor_si256(lo, bias());
        const __m256i sum_s = _mm256_add_epi64(lo_s, a.v);
        // The carry mask is all ones (-1): subtracting it adds 1.
        hi = _mm256_sub_epi64(hi, _mm256_cmpgt_epi64(lo_s, sum_s));
        return {reducePartsShifted(sum_s, hi, _mm256_srli_epi64(hi, 32))};
    }

    static FpVec4Avx2
    canonical(const FpVec4Avx2 &a)
    {
        return {avx2::canonical(a.v)};
    }

    /** x >> 32 in the low half of each lane (all dot() reads). */
    static FpVec4Avx2
    high(const FpVec4Avx2 &x)
    {
        return {high32(x.v)};
    }

    /**
     * sum_j row[j] * x[j] for n <= kLaneDotMaxTerms, reduced once.
     * With c = l0 + l1*2^22 + l2*2^44 and x = xl + xh*2^32, each term
     * adds six limb x half products (each < 2^54) to six columns of
     * weights 2^0, 2^22, 2^44 (xl) and 2^32, 2^54, 2^76 (xh): columns
     * stay below 16 * 2^54 = 2^58. vpmuludq reads the low 32 bits of
     * each lane, so x itself serves as xl, and a 32-bit broadcast of a
     * limb serves as the limb.
     */
    static FpVec4Avx2
    dot(const FpLimbs *row, const FpVec4Avx2 *x, const FpVec4Avx2 *xh,
        size_t n)
    {
        __m256i s0 = _mm256_setzero_si256();
        __m256i s1 = s0, s2 = s0, s3 = s0, s4 = s0, s5 = s0;
        for (size_t j = 0; j < n; ++j) {
            const __m256i c0 = _mm256_set1_epi32(static_cast<int>(row[j].l0));
            const __m256i c1 = _mm256_set1_epi32(static_cast<int>(row[j].l1));
            const __m256i c2 = _mm256_set1_epi32(static_cast<int>(row[j].l2));
            s0 = _mm256_add_epi64(s0, _mm256_mul_epu32(c0, x[j].v));
            s1 = _mm256_add_epi64(s1, _mm256_mul_epu32(c1, x[j].v));
            s2 = _mm256_add_epi64(s2, _mm256_mul_epu32(c2, x[j].v));
            s3 = _mm256_add_epi64(s3, _mm256_mul_epu32(c0, xh[j].v));
            s4 = _mm256_add_epi64(s4, _mm256_mul_epu32(c1, xh[j].v));
            s5 = _mm256_add_epi64(s5, _mm256_mul_epu32(c2, xh[j].v));
        }
        return {reduceColumns(s0, s1, s2, s3, s4, s5)};
    }

    /**
     * Fold the six dot() columns into 32-bit-aligned columns
     * k0..k3 (weights 2^0, 2^32, 2^64, 2^96), splitting the columns
     * whose weight is not a multiple of 32 at the 32-bit boundary:
     *   s1*2^22 = (s1 mod 2^10)*2^22 + (s1 >> 10)*2^32
     *   s2*2^44 = ((s2 mod 2^20) << 12)*2^32 + (s2 >> 20)*2^64
     *   s4*2^54 = ((s4 mod 2^10) << 22)*2^32 + (s4 >> 10)*2^64
     *   s5*2^76 = ((s5 mod 2^20) << 12)*2^64 + (s5 >> 20)*2^96
     * Then k0 < 2^59, k1 < 2^60, k2 < 2^49, k3 < 2^38; one carry pass
     * leaves lo (64 bits), mid (32 bits) and top < 2^39 for
     * reduceParts.
     */
    static __m256i
    reduceColumns(__m256i s0, __m256i s1, __m256i s2, __m256i s3,
                  __m256i s4, __m256i s5)
    {
        const __m256i m10 = splat((uint64_t{1} << 10) - 1);
        const __m256i m20 = splat((uint64_t{1} << 20) - 1);

        const __m256i k0 = _mm256_add_epi64(
            s0, _mm256_slli_epi64(_mm256_and_si256(s1, m10), 22));
        __m256i k1 = _mm256_add_epi64(
            _mm256_add_epi64(s3, _mm256_srli_epi64(s1, 10)),
            _mm256_add_epi64(
                _mm256_slli_epi64(_mm256_and_si256(s2, m20), 12),
                _mm256_slli_epi64(_mm256_and_si256(s4, m10), 22)));
        __m256i k2 = _mm256_add_epi64(
            _mm256_add_epi64(_mm256_srli_epi64(s2, 20),
                             _mm256_srli_epi64(s4, 10)),
            _mm256_slli_epi64(_mm256_and_si256(s5, m20), 12));
        const __m256i k3 = _mm256_srli_epi64(s5, 20);

        k1 = _mm256_add_epi64(k1, _mm256_srli_epi64(k0, 32));
        k2 = _mm256_add_epi64(k2, _mm256_srli_epi64(k1, 32));
        const __m256i lo = _mm256_blend_epi32(
            k0,
            _mm256_castps_si256(_mm256_moveldup_ps(_mm256_castsi256_ps(k1))),
            0xAA);
        return reducePartsShifted(
            _mm256_xor_si256(lo, bias()), k2,
            _mm256_add_epi64(k3, _mm256_srli_epi64(k2, 32)));
    }
};

} // namespace avx2
} // namespace unizk

#endif // UNIZK_FIELD_GOLDILOCKS_SIMD_AVX2_H
