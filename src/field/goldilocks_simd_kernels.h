/**
 * @file
 * The array kernels behind LaneKernels, written once over a lane type V
 * (FpVec4Scalar or FpVec4Avx2) and instantiated per backend by
 * makeLaneKernels<V>() -- in goldilocks_simd.cpp for the scalar table
 * and in the -mavx2 TU for the AVX2 one.
 *
 * Every kernel loads canonical Fp, runs lazy lane ops, and stores
 * canonical Fp, so each backend's output equals the scalar field
 * arithmetic bit for bit. A count that is not a multiple of the lane
 * width finishes with one zero-padded lane op, so no scalar Fp
 * arithmetic is compiled into a backend TU (whose codegen flags may
 * not suit every host).
 *
 * No intrinsics appear here: only V's operations.
 */

#ifndef UNIZK_FIELD_GOLDILOCKS_SIMD_KERNELS_H
#define UNIZK_FIELD_GOLDILOCKS_SIMD_KERNELS_H

#include <type_traits>

#include "field/goldilocks_simd.h"

namespace unizk {
namespace lane_kernels {

static_assert(sizeof(Fp) == sizeof(uint64_t) &&
                  std::is_trivially_copyable<Fp>::value,
              "lane loads reinterpret Fp arrays as 64-bit words");

constexpr size_t W = kSimdBatchWidth;

/**
 * The last count % W elements of up to three arrays, zero-padded to one
 * full lane group: copied in from the sources, run through the same
 * group body as every full group, and copied back out. Parameterized on
 * V although it does not use it, so each backend TU instantiates its
 * own copy under its own codegen flags.
 */
template <typename V, size_t Arrays>
struct Tail
{
    Fp buf[Arrays][W] = {};
    size_t rem;

    Tail(size_t rem_, const Fp *const (&src)[Arrays]) : rem(rem_)
    {
        for (size_t a = 0; a < Arrays; ++a)
            for (size_t k = 0; k < rem; ++k)
                buf[a][k] = src[a][k];
    }

    void
    writeBack(size_t a, Fp *dst) const
    {
        for (size_t k = 0; k < rem; ++k)
            dst[k] = buf[a][k];
    }
};

template <typename V>
inline void
difGroup(Fp *lo, Fp *hi, const Fp *tw)
{
    const V u = V::load(lo);
    const V v = V::load(hi);
    V::add(u, v).store(lo);
    V::mul(V::sub(u, v), V::load(tw)).store(hi);
}

template <typename V>
inline void
ditGroup(Fp *lo, Fp *hi, const Fp *tw)
{
    const V u = V::load(lo);
    // sub() needs a canonical subtrahend.
    const V v = V::canonical(V::mul(V::load(hi), V::load(tw)));
    V::add(u, v).store(lo);
    V::sub(u, v).store(hi);
}

template <typename V>
void
difRun(Fp *lo, Fp *hi, const Fp *tw, size_t count)
{
    size_t j = 0;
    for (; j + W <= count; j += W)
        difGroup<V>(lo + j, hi + j, tw + j);
    if (j < count) {
        Tail<V, 3> t(count - j, {lo + j, hi + j, tw + j});
        difGroup<V>(t.buf[0], t.buf[1], t.buf[2]);
        t.writeBack(0, lo + j);
        t.writeBack(1, hi + j);
    }
}

template <typename V>
void
ditRun(Fp *lo, Fp *hi, const Fp *tw, size_t count)
{
    size_t j = 0;
    for (; j + W <= count; j += W)
        ditGroup<V>(lo + j, hi + j, tw + j);
    if (j < count) {
        Tail<V, 3> t(count - j, {lo + j, hi + j, tw + j});
        ditGroup<V>(t.buf[0], t.buf[1], t.buf[2]);
        t.writeBack(0, lo + j);
        t.writeBack(1, hi + j);
    }
}

template <typename V>
void
difStage(Fp *a, size_t n, size_t half, const Fp *tw)
{
    for (size_t start = 0; start < n; start += 2 * half)
        difRun<V>(a + start, a + start + half, tw, half);
}

template <typename V>
void
ditStage(Fp *a, size_t n, size_t half, const Fp *tw)
{
    for (size_t start = 0; start < n; start += 2 * half)
        ditRun<V>(a + start, a + start + half, tw, half);
}

/** dst[i] = f(src[i], other[i]) group by group, padded tail. */
template <typename V, typename F>
inline void
mapGroups(Fp *dst, const Fp *src, const Fp *other, size_t count, F f)
{
    size_t i = 0;
    for (; i + W <= count; i += W)
        f(V::load(src + i), V::load(other + i)).store(dst + i);
    if (i < count) {
        Tail<V, 2> t(count - i, {src + i, other + i});
        f(V::load(t.buf[0]), V::load(t.buf[1])).store(t.buf[0]);
        t.writeBack(0, dst + i);
    }
}

template <typename V>
void
scale(Fp *a, size_t count, Fp c)
{
    const V cv = V::broadcast(c);
    // `other` is unused; pass the data itself as a valid source.
    mapGroups<V>(a, a, a, count,
                 [&cv](const V &x, const V &) { return V::mul(x, cv); });
}

template <typename V>
void
scaleByTable(Fp *a, const Fp *pows, Fp extra, size_t count)
{
    const V ev = V::broadcast(extra);
    mapGroups<V>(a, a, pows, count, [&ev](const V &x, const V &p) {
        return V::mul(x, V::mul(p, ev));
    });
}

template <typename V>
void
scaleByPowers(Fp *dst, const Fp *src, size_t count, const Fp *start,
              Fp step4)
{
    V p = V::load(start);
    const V sv = V::broadcast(step4);
    mapGroups<V>(dst, src, src, count, [&](const V &x, const V &) {
        const V out = V::mul(x, p);
        p = V::mul(p, sv);
        return out;
    });
}

// ---- Raw lane-op hooks (differential tests).

template <typename V>
void
rawMul(const uint64_t *a, const uint64_t *b, uint64_t *out)
{
    V::mul(V::loadRaw(a), V::loadRaw(b)).storeRaw(out);
}

template <typename V>
void
rawSquare(const uint64_t *a, uint64_t *out)
{
    V::square(V::loadRaw(a)).storeRaw(out);
}

template <typename V>
void
rawAdd(const uint64_t *a, const uint64_t *c, uint64_t *out)
{
    V::add(V::loadRaw(a), V::loadRaw(c)).storeRaw(out);
}

template <typename V>
void
rawSub(const uint64_t *a, const uint64_t *b, uint64_t *out)
{
    V::sub(V::loadRaw(a), V::loadRaw(b)).storeRaw(out);
}

template <typename V>
void
rawMulAdd(const uint64_t *a, const uint64_t *b, const uint64_t *c,
          uint64_t *out)
{
    V::mulAdd(V::loadRaw(a), V::loadRaw(b), V::loadRaw(c)).storeRaw(out);
}

template <typename V>
void
rawCanonical(const uint64_t *a, uint64_t *out)
{
    V::canonical(V::loadRaw(a)).storeRaw(out);
}

template <typename V>
void
rawDot(const FpLimbs *row, const uint64_t *x, size_t n, uint64_t *out)
{
    V xs[kLaneDotMaxTerms];
    V xh[kLaneDotMaxTerms];
    for (size_t j = 0; j < n; ++j) {
        xs[j] = V::loadRaw(x + j * W);
        xh[j] = V::high(xs[j]);
    }
    V::dot(row, xs, xh, n).storeRaw(out);
}

} // namespace lane_kernels

/** The LaneKernels table of lane type @p V. */
template <typename V>
LaneKernels
makeLaneKernels()
{
    using namespace lane_kernels;
    return {difRun<V>,
            ditRun<V>,
            difStage<V>,
            ditStage<V>,
            scale<V>,
            scaleByTable<V>,
            scaleByPowers<V>,
            rawMul<V>,
            rawSquare<V>,
            rawAdd<V>,
            rawSub<V>,
            rawMulAdd<V>,
            rawCanonical<V>,
            rawDot<V>};
}

#if defined(UNIZK_HAVE_AVX2)
/** The AVX2 table (goldilocks_simd_avx2.cpp); callers use laneKernels(). */
const LaneKernels &avx2LaneKernels();
#endif

} // namespace unizk

#endif // UNIZK_FIELD_GOLDILOCKS_SIMD_KERNELS_H
