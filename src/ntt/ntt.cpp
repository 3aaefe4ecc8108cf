#include "ntt/ntt.h"

#include <algorithm>
#include <type_traits>

#include "common/bits.h"
#include "common/thread_pool.h"
#include "field/field_checks.h"
#include "field/goldilocks_simd.h"
#include "obs/obs.h"

namespace unizk {

namespace {

// The twiddle factors below are all powers of Fp::primitiveRootOfUnity;
// verify at compile time that the root tower this file builds on is
// consistent with the field's declared 2-adicity (the full order checks
// live in field_checks.h). A wrong root would make every NTT in the
// repository produce well-formed but wrong evaluations.
static_assert(selfcheck::isPrimitiveRootOfOrderPow2(
                  Fp::primitiveRootOfUnity(Fp::twoAdicity),
                  Fp::twoAdicity),
              "NTT twiddle base root order mismatch with twoAdicity");
static_assert(Fp::primitiveRootOfUnity(Fp::twoAdicity - 1) ==
                  Fp::primitiveRootOfUnity(Fp::twoAdicity).squared(),
              "NTT root tower is not closed under squaring");
// The inverse twiddle used by every iNTT really is the inverse root.
static_assert((Fp::primitiveRootOfUnity(16).inverse() *
               Fp::primitiveRootOfUnity(16)).isOne(),
              "inverse twiddle root is wrong");

/**
 * Cache-block size for the four-step decomposition: once the leading
 * stages have peeled the transform into independent sub-transforms of
 * this many elements (64 KiB of Fp), each sub-transform runs serially
 * inside one pool chunk and stays resident in L1/L2.
 */
constexpr uint32_t block_log = 13;

/** Transforms below this size never leave the calling thread. */
constexpr size_t par_min_size = size_t{1} << 15;

/** Chunk grain for stage-parallel butterfly sweeps and scaling passes. */
constexpr size_t stage_grain = size_t{1} << 12;

/**
 * One DIF (Gentleman-Sande) butterfly. The Fp instantiation runs the
 * lanes' branchless lazy:: formulas (field/goldilocks_simd.h) and
 * canonicalises on the way out: butterfly inputs are effectively random
 * field elements, so the operators' carry branches are ~50/50 and the
 * mispredictions roughly halve inner-loop throughput. Same canonical
 * values either way. The generic path serves Fp2 (short FRI final
 * polynomials only).
 */
template <typename T>
inline void
difButterfly(T &lo, T &hi, Fp w)
{
    const T u = lo;
    const T v = hi;
    if constexpr (std::is_same<T, Fp>::value) {
        lo = Fp(lazy::add(u.value(), v.value()));
        hi = Fp(lazy::mul(lazy::sub(u.value(), v.value()), w.value()));
    } else {
        lo = u + v;
        hi = (u - v) * w;
    }
}

/** One DIT (Cooley-Tukey) butterfly; see difButterfly. */
template <typename T>
inline void
ditButterfly(T &lo, T &hi, Fp w)
{
    const T u = lo;
    if constexpr (std::is_same<T, Fp>::value) {
        const uint64_t v = lazy::canonical(lazy::mul(hi.value(), w.value()));
        lo = Fp(lazy::add(u.value(), v));
        hi = Fp(lazy::sub(u.value(), v));
    } else {
        const T v = hi * w;
        lo = u + v;
        hi = u - v;
    }
}

/**
 * One scalar DIF stage over @p n contiguous elements: blocks of
 * 2 * half, butterfly j of every block reading stage[j] (the stage's
 * run of the stage-major table, ntt/twiddles.h). No loop-carried
 * dependency: every butterfly reads its twiddle straight from the
 * table.
 */
template <typename T>
void
difStageScalar(T *a, size_t n, size_t half, const Fp *stage)
{
    for (size_t start = 0; start < n; start += 2 * half) {
        T *lo = a + start;
        T *hi = lo + half;
        for (size_t j = 0; j < half; ++j)
            difButterfly(lo[j], hi[j], stage[j]);
    }
}

/** One scalar DIT stage; see difStageScalar. */
template <typename T>
void
ditStageScalar(T *a, size_t n, size_t half, const Fp *stage)
{
    for (size_t start = 0; start < n; start += 2 * half) {
        T *lo = a + start;
        T *hi = lo + half;
        for (size_t j = 0; j < half; ++j)
            ditButterfly(lo[j], hi[j], stage[j]);
    }
}

/**
 * Decimation-in-frequency network (Gentleman-Sande) on scalar
 * butterflies: natural input order, bit-reversed output order. Serves
 * the Fp2 transforms; Fp transforms run difNetwork.
 */
template <typename T>
void
difTabled(T *a, size_t n, const Fp *tw)
{
    for (size_t half = n / 2; half >= 1; half /= 2)
        difStageScalar(a, n, half, tw + half);
}

/**
 * Stages at least this wide run four butterflies per lane op; the
 * narrower ones stay on the scalar core.
 */
constexpr size_t lane_min_half = kSimdBatchWidth;

/**
 * The Fp DIF network of size @p n: natural input order, bit-reversed
 * output order, stages read from the stage-major table @p tw.
 */
void
difNetwork(Fp *a, size_t n, const Fp *tw, const LaneKernels &lanes)
{
    for (size_t half = n / 2; half >= 1; half /= 2) {
        if (half >= lane_min_half)
            lanes.difStage(a, n, half, tw + half);
        else
            difStageScalar(a, n, half, tw + half);
    }
}

/**
 * The Fp decimation-in-time network (Cooley-Tukey): bit-reversed input
 * order, natural output order.
 */
void
ditNetwork(Fp *a, size_t n, const Fp *tw, const LaneKernels &lanes)
{
    for (size_t half = 1; half < n; half *= 2) {
        if (half >= lane_min_half)
            lanes.ditStage(a, n, half, tw + half);
        else
            ditStageScalar(a, n, half, tw + half);
    }
}

/** True when this transform should engage the pool. */
bool
runParallel(size_t n, bool allow_parallel)
{
    return allow_parallel && n >= par_min_size && globalThreadCount() > 1;
}

/**
 * Split the butterflies [first, last) of one stage with half-width
 * @p half into runs within one block and call run(lo, hi, j, count) for
 * each: butterfly b * half + j pairs data[b * 2half + j] (lo) with the
 * element half further on (hi), and the run covers j .. j + count - 1.
 */
template <typename Run>
void
forStageRuns(Fp *data, size_t half, size_t first, size_t last,
             const Run &run)
{
    for (size_t idx = first; idx < last;) {
        const size_t b = idx / half;
        const size_t j = idx - b * half;
        const size_t count = std::min(half - j, last - idx);
        Fp *lo = data + b * 2 * half + j;
        run(lo, lo + half, j, count);
        idx += count;
    }
}

/**
 * Pool-parallel DIF via the cache-blocked four-step decomposition: the
 * leading stages (each a full sweep of independent butterflies — the
 * column NTTs fused with the inter-dimension twiddle multiplications of
 * the four-step scheme) run stage-by-stage across the pool; the
 * remaining stages form n/2^block_log independent contiguous
 * sub-transforms (the row NTTs) that run one per chunk, reading the
 * same stage-major table. Identical butterflies and twiddle values to
 * the serial core, so results are thread-count invariant.
 */
void
difRun(Fp *data, size_t n, const Fp *tw, bool allow_parallel)
{
    UNIZK_SPAN("ntt/dif");
    UNIZK_COUNTER_ADD("ntt.transforms", 1);
    if (n < 2)
        return;
    const LaneKernels &lanes = activeLaneKernels();
    if (!runParallel(n, allow_parallel)) {
        difNetwork(data, n, tw, lanes);
        return;
    }
    size_t len = n;
    const size_t block = size_t{1} << block_log;
    while (len > block) {
        const size_t half = len / 2;
        const Fp *stage = tw + half;
        parallelFor(0, n / 2, stage_grain, [&](size_t lo, size_t hi) {
            forStageRuns(data, half, lo, hi,
                         [&](Fp *a, Fp *b, size_t j, size_t count) {
                             lanes.difRun(a, b, stage + j, count);
                         });
        });
        len >>= 1;
    }
    const size_t sub = len;
    parallelFor(0, n / sub, /*grain=*/1, [&](size_t lo, size_t hi) {
        for (size_t b = lo; b < hi; ++b)
            difNetwork(data + b * sub, sub, tw, lanes);
    });
}

/** Pool-parallel DIT; the mirror image of difRun (blocks first). */
void
ditRun(Fp *data, size_t n, const Fp *tw, bool allow_parallel)
{
    UNIZK_SPAN("ntt/dit");
    UNIZK_COUNTER_ADD("ntt.transforms", 1);
    if (n < 2)
        return;
    const LaneKernels &lanes = activeLaneKernels();
    if (!runParallel(n, allow_parallel)) {
        ditNetwork(data, n, tw, lanes);
        return;
    }
    const size_t block = size_t{1} << block_log;
    parallelFor(0, n / block, /*grain=*/1, [&](size_t lo, size_t hi) {
        for (size_t b = lo; b < hi; ++b)
            ditNetwork(data + b * block, block, tw, lanes);
    });
    for (size_t len = 2 * block; len <= n; len <<= 1) {
        const size_t half = len / 2;
        const Fp *stage = tw + half;
        parallelFor(0, n / 2, stage_grain, [&](size_t lo, size_t hi) {
            forStageRuns(data, half, lo, hi,
                         [&](Fp *a, Fp *b, size_t j, size_t count) {
                             lanes.ditRun(a, b, stage + j, count);
                         });
        });
    }
}

/** Multiply every element by the same constant (pool-chunked lanes). */
void
scaleAll(Fp *data, size_t n, Fp c, bool allow_parallel)
{
    const LaneKernels &lanes = activeLaneKernels();
    if (!runParallel(n, allow_parallel)) {
        lanes.scale(data, n, c);
        return;
    }
    parallelFor(0, n, stage_grain, [&](size_t lo, size_t hi) {
        lanes.scale(data + lo, hi - lo, c);
    });
}

/**
 * dst[i] = src[i] * first * step^i for i < count, as a lane power
 * chain four links at a time. Field arithmetic is exact, so this equals
 * the serial `p *= step` chain value for value.
 */
void
scaleByPowers(const LaneKernels &lanes, Fp *dst, const Fp *src,
              size_t count, Fp first, Fp step)
{
    Fp start[kSimdBatchWidth];
    start[0] = first;
    for (size_t k = 1; k < kSimdBatchWidth; ++k)
        start[k] = start[k - 1] * step;
    lanes.scaleByPowers(dst, src, count, start,
                        step.pow(kSimdBatchWidth));
}

/**
 * Multiply element i by extra * shift^i. Uses the cached coset-power
 * table when @p shift is the standard coset shift and the table covers
 * this size; otherwise each chunk seeds its power chain with a pow()
 * jump. Field arithmetic is exact, so both paths (and any chunking)
 * produce identical canonical values.
 */
void
applyCosetScale(std::vector<Fp> &a, Fp shift, Fp extra,
                const std::vector<Fp> &table, bool allow_parallel)
{
    const size_t n = a.size();
    Fp *data = a.data();
    const Fp *pows =
        table.size() == n && !table.empty() ? table.data() : nullptr;
    const LaneKernels &lanes = activeLaneKernels();

    auto chunk = [&](size_t lo, size_t hi) {
        if (pows) {
            lanes.scaleByTable(data + lo, pows + lo, extra, hi - lo);
        } else {
            scaleByPowers(lanes, data + lo, data + lo, hi - lo,
                          shift.pow(lo) * extra, shift);
        }
    };
    if (runParallel(n, allow_parallel))
        parallelFor(0, n, stage_grain, chunk);
    else
        chunk(0, n);
}

/** Bit-reverse permutation, pool-chunked: each swap pair (i, rev(i)) is
 *  touched exactly once, by the chunk owning its smaller index. */
void
bitrevPermute(Fp *data, size_t n, bool allow_parallel)
{
    const uint32_t bits = log2Exact(n);
    auto swaps = [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
            const size_t j = reverseBits(i, bits);
            if (j > i)
                std::swap(data[i], data[j]);
        }
    };
    if (runParallel(n, allow_parallel))
        parallelFor(0, n, stage_grain, swaps);
    else
        swaps(0, n);
}

Fp
forwardRoot(size_t n)
{
    return Fp::primitiveRootOfUnity(log2Exact(n));
}

Fp
inverseRoot(size_t n)
{
    return forwardRoot(n).inverse();
}

/**
 * Guard every public transform entry point against degenerate sizes
 * with a clear message (log2Exact(0) would otherwise fire a confusing
 * "non-power-of-two" assert deep in the twiddle computation).
 */
void
checkTransformSize(size_t n)
{
    unizk_assert(n != 0, "NTT on an empty vector");
    unizk_assert(isPowerOfTwo(n), "NTT size must be a power of two");
}

} // namespace

void
nttNR(std::vector<Fp> &a)
{
    checkTransformSize(a.size());
    const auto t = acquireTwiddles(log2Exact(a.size()));
    difRun(a.data(), a.size(), t->fwd.data(), true);
}

void
cosetInttRN(std::vector<Fp> &a, Fp shift)
{
    checkTransformSize(a.size());
    const auto t = acquireTwiddles(log2Exact(a.size()));
    ditRun(a.data(), a.size(), t->inv.data(), true);
    const bool standard = shift == defaultCosetShift();
    applyCosetScale(a, shift.inverse(), t->sizeInv,
                    standard ? t->cosetInv : std::vector<Fp>{}, true);
}

namespace {

/**
 * LDE by coset decomposition: instead of zero-padding the N coefficients
 * to N*blowup and running one big transform (whose first log2(blowup)
 * stages only shuffle zeros), split the target domain shift*H' into
 * `blowup` cosets of the size-N subgroup,
 *
 *   x_t = shift * w_m^t,  t = c + blowup * j
 *       = (shift * w_m^c) * (w_m^blowup)^j,
 *
 * and evaluate the *unpadded* coefficients over each coset with a size-N
 * transform. Because the bit-reversal of t = c + blowup*j splits as
 * rev(c) * N + rev(j), each sub-transform's NR output is exactly one
 * contiguous slice of the big transform's NR output, so results are
 * value-identical to the padded path. This removes the zero stages,
 * keeps every sub-transform cache-sized, and parallelizes over cosets
 * with no barriers.
 *
 * @param out  destination of the N*blowup NR-ordered evaluations; the
 *             slice for coset c starts at rev(c) * N.
 */
void
ldeNRInto(const Fp *coeffs, size_t n, uint32_t blowup, Fp shift, Fp *out,
          bool allow_parallel)
{
    const size_t m = n * blowup;
    const uint32_t log_b = log2Exact(blowup);
    const Fp w_m = Fp::primitiveRootOfUnity(log2Exact(m));
    const auto t = acquireTwiddles(log2Exact(n));
    const LaneKernels &lanes = activeLaneKernels();

    auto oneCoset = [&](size_t c, bool par) {
        Fp *slice = out + reverseBits(c, log_b) * n;
        const Fp coset_shift = shift * w_m.pow(c);
        // slice[i] = coeffs[i] * coset_shift^i, chunked power chains.
        auto scale = [&](size_t lo, size_t hi) {
            scaleByPowers(lanes, slice + lo, coeffs + lo, hi - lo,
                          coset_shift.pow(lo), coset_shift);
        };
        if (runParallel(n, par))
            parallelFor(0, n, stage_grain, scale);
        else
            scale(0, n);
        difRun(slice, n, t->fwd.data(), par);
    };

    if (allow_parallel && blowup > 1 && globalThreadCount() > 1) {
        parallelFor(0, blowup, /*grain=*/1, [&](size_t lo, size_t hi) {
            for (size_t c = lo; c < hi; ++c)
                oneCoset(c, /*par=*/false);
        });
    } else {
        for (size_t c = 0; c < blowup; ++c)
            oneCoset(c, allow_parallel);
    }
}

} // namespace

std::vector<Fp>
lowDegreeExtension(const std::vector<Fp> &coeffs, uint32_t blowup, Fp shift)
{
    checkTransformSize(coeffs.size());
    unizk_assert(isPowerOfTwo(blowup), "blowup must be a power of two");
    std::vector<Fp> ext(coeffs.size() * blowup);
    ldeNRInto(coeffs.data(), coeffs.size(), blowup, shift, ext.data(),
              true);
    return ext;
}

// ---- Batch API -----------------------------------------------------------

namespace {

/**
 * Pick the parallel axis for a batch: with enough polynomials to keep
 * every worker busy (or transforms too small to split) spread polys
 * across the pool and run each transform serially; otherwise run polys
 * sequentially and let each transform fan out internally. Either way
 * the per-element arithmetic is identical, so the choice cannot affect
 * proof bytes.
 */
bool
spreadAcrossPolys(size_t count, size_t n)
{
    const unsigned threads = globalThreadCount();
    if (threads <= 1)
        return true;
    if (n < par_min_size)
        return true;
    return count >= threads;
}

void
checkBatchSizes(size_t n, size_t count)
{
    unizk_assert(count != 0, "empty polynomial batch");
    checkTransformSize(n);
}

template <typename Fn>
void
forEachPoly(size_t count, size_t n, const Fn &fn)
{
    if (spreadAcrossPolys(count, n)) {
        parallelFor(0, count, /*grain=*/1, [&](size_t lo, size_t hi) {
            for (size_t p = lo; p < hi; ++p)
                fn(p, /*par=*/false);
        });
    } else {
        for (size_t p = 0; p < count; ++p)
            fn(p, /*par=*/true);
    }
}

} // namespace

void
inttBatchNN(Fp *data, size_t n, size_t count)
{
    checkBatchSizes(n, count);
    const auto t = acquireTwiddles(log2Exact(n));
    forEachPoly(count, n, [&](size_t p, bool par) {
        Fp *poly = data + p * n;
        difRun(poly, n, t->inv.data(), par);
        bitrevPermute(poly, n, par);
        scaleAll(poly, n, t->sizeInv, par);
    });
}

void
ldeBatch(const Fp *coeffs, size_t n, size_t count, uint32_t blowup,
         Fp shift, Fp *out)
{
    checkBatchSizes(n, count);
    unizk_assert(isPowerOfTwo(blowup), "blowup must be a power of two");
    const size_t m = n * blowup;
    forEachPoly(count, m, [&](size_t p, bool par) {
        ldeNRInto(coeffs + p * n, n, blowup, shift, out + p * m, par);
    });
}

// ---- Reference paths -----------------------------------------------------

std::vector<Fp>
naiveDft(const std::vector<Fp> &a, Fp shift)
{
    const size_t n = a.size();
    const Fp w = forwardRoot(n);
    std::vector<Fp> out(n);
    Fp wi = Fp::one();
    for (size_t i = 0; i < n; ++i) {
        const Fp point = shift * wi;
        Fp acc;
        Fp xp = Fp::one();
        for (size_t j = 0; j < n; ++j) {
            acc += a[j] * xp;
            xp *= point;
        }
        out[i] = acc;
        wi *= w;
    }
    return out;
}

std::vector<Fp>
naiveIdft(const std::vector<Fp> &a, Fp shift)
{
    const size_t n = a.size();
    const Fp w_inv = inverseRoot(n);
    const Fp n_inv = Fp(static_cast<uint64_t>(n)).inverse();
    const Fp s_inv = shift.inverse();
    std::vector<Fp> out(n);
    Fp wj = Fp::one(); // w_inv^j
    Fp sj = Fp::one(); // s_inv^j
    for (size_t j = 0; j < n; ++j) {
        Fp acc;
        Fp xp = Fp::one();
        for (size_t i = 0; i < n; ++i) {
            acc += a[i] * xp;
            xp *= wj;
        }
        out[j] = acc * n_inv * sj;
        wj *= w_inv;
        sj *= s_inv;
    }
    return out;
}

void
scalarNttNR(std::vector<Fp> &a)
{
    checkTransformSize(a.size());
    const size_t n = a.size();
    // The seed DIF core, verbatim: roots recomputed per call and the
    // serial per-butterfly `w *= w_len` twiddle chain.
    Fp w_len = forwardRoot(n);
    for (size_t len = n; len >= 2; len >>= 1) {
        const size_t half = len / 2;
        for (size_t start = 0; start < n; start += len) {
            Fp w = Fp::one();
            for (size_t j = 0; j < half; ++j) {
                const Fp u = a[start + j];
                const Fp v = a[start + j + half];
                a[start + j] = u + v;
                a[start + j + half] = (u - v) * w;
                w *= w_len;
            }
        }
        w_len = w_len.squared();
    }
}

std::vector<Fp>
scalarLowDegreeExtension(const std::vector<Fp> &coeffs, uint32_t blowup,
                         Fp shift)
{
    checkTransformSize(coeffs.size());
    unizk_assert(isPowerOfTwo(blowup), "blowup must be a power of two");
    std::vector<Fp> ext(coeffs);
    ext.resize(coeffs.size() * blowup, Fp::zero());
    Fp p = Fp::one();
    for (auto &x : ext) {
        x *= p;
        p *= shift;
    }
    scalarNttNR(ext);
    return ext;
}

// ---- Extension-field transforms ------------------------------------------

void
inttNNExt(std::vector<Fp2> &a)
{
    const size_t n = a.size();
    checkTransformSize(n);
    if (n < 2)
        return;
    // Table-driven DIF core over Fp2 values with Fp twiddles, then
    // bit-reverse and scale, mirroring inttBatchNN. The FRI final polynomial
    // is short, so this path stays serial.
    const auto t = acquireTwiddles(log2Exact(n));
    difTabled(a.data(), n, t->inv.data());
    bitReversePermute(a);
    const Fp n_inv = t->sizeInv;
    for (auto &x : a)
        x = x * n_inv;
}

void
cosetInttNNExt(std::vector<Fp2> &a, Fp shift)
{
    inttNNExt(a);
    const Fp s_inv = shift.inverse();
    Fp p = Fp::one();
    for (auto &x : a) {
        x = x * p;
        p *= s_inv;
    }
}

// ---- Multi-dimensional decomposition -------------------------------------

std::vector<uint32_t>
decomposeNttDims(uint32_t log_size, uint32_t log_n_max)
{
    unizk_assert(log_n_max >= 1, "dimension size must be at least 2");
    if (log_size == 0)
        return {};
    // Balanced split: the fewest dims that fit under 2^log_n_max, sized
    // as evenly as possible (larger dims first / innermost).
    const uint32_t k =
        static_cast<uint32_t>(ceilDiv(log_size, log_n_max));
    const uint32_t base = log_size / k;
    const uint32_t rem = log_size % k;
    std::vector<uint32_t> dims(k, base);
    for (uint32_t i = 0; i < rem; ++i)
        dims[i] += 1;
    return dims;
}

namespace {

/** Recursive dataflow of the planned decomposition; dims[d] is the
 *  innermost factor of the current (sub-)transform. */
void
multidimNttImpl(std::vector<Fp> &a, const std::vector<uint32_t> &dims,
                size_t d)
{
    const size_t n = a.size();
    if (d + 1 >= dims.size()) {
        nttNR(a);
        bitReversePermute(a);
        return;
    }

    // Split N = n1 * n2 with n1 the (innermost) dims[d]-sized factor.
    const size_t n1 = size_t{1} << dims[d];
    const size_t n2 = n / n1;
    const Fp w = Fp::primitiveRootOfUnity(log2Exact(n));

    // Inner DFTs along j2 for each fixed j1 (stride-n1 subsequences),
    // then inter-dimension twiddles w^(j1*k2) -- the element-wise
    // multiplications the hardware performs between decomposed dims.
    std::vector<Fp> col(n2);
    Fp w_j1 = Fp::one(); // w^j1
    for (size_t j1 = 0; j1 < n1; ++j1) {
        for (size_t j2 = 0; j2 < n2; ++j2)
            col[j2] = a[n1 * j2 + j1];
        multidimNttImpl(col, dims, d + 1);
        Fp tw = Fp::one(); // w^(j1*k2)
        for (size_t k2 = 0; k2 < n2; ++k2) {
            a[n1 * k2 + j1] = col[k2] * tw;
            tw *= w_j1;
        }
        w_j1 *= w;
    }

    // Outer size-n1 NTTs along j1 for each k2; outputs scatter to
    // X[n2*k1 + k2].
    std::vector<Fp> out(n);
    std::vector<Fp> row(n1);
    for (size_t k2 = 0; k2 < n2; ++k2) {
        for (size_t j1 = 0; j1 < n1; ++j1)
            row[j1] = a[n1 * k2 + j1];
        nttNR(row);
        bitReversePermute(row);
        for (size_t k1 = 0; k1 < n1; ++k1)
            out[n2 * k1 + k2] = row[k1];
    }
    a = std::move(out);
}

} // namespace

void
multidimNttNN(std::vector<Fp> &a, uint32_t log_n_max)
{
    checkTransformSize(a.size());
    multidimNttImpl(a, decomposeNttDims(log2Exact(a.size()), log_n_max), 0);
}

} // namespace unizk
