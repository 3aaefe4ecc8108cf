/**
 * @file
 * The Plonk quotient's constraint combination on the Goldilocks lane
 * layer (field/goldilocks_simd.h): four consecutive points of the
 * quotient domain per lane op, the vector-mode mapping the paper gives
 * element-wise polynomial work (§5).
 *
 * At point x of the 4n coset, with repetition r's wires a, b, c and
 * permutation polynomial Z:
 *
 *   gate_r = q_l a + q_r b + q_o c + q_m a b + q_c - sum_k pub_rk L_k
 *   perm_r = Z(w x) prod_j (w_j + beta s_j + gamma)
 *          - Z(x)   prod_j (w_j + beta k_j x + gamma)
 *   l1_r   = L_1 (Z(x) - 1)
 *   out    = sum_r (alpha^3r gate_r + alpha^(3r+1) perm_r
 *                   + alpha^(3r+2) l1_r) / Z_H(x)
 *
 * Columns are the first 4n values of the committed LDE columns, in
 * bit-reversed order (DESIGN.md §6.11): Z(w x) is read through a
 * per-block table of rotateBitReversed, and Z_H is constant on each
 * stored quarter.
 *
 * The kernel is one template over the lane type, instantiated per
 * backend (quotient_kernel.cpp for the scalar lanes, the -mavx2
 * quotient_kernel_avx2.cpp for AVX2), the same split as
 * hash/poseidon_batch.h. The field is exact and every store
 * canonicalizes, so each backend writes the scalar formula's values bit
 * for bit. Every scalar constant is prepared by the caller, so no
 * scalar Fp arithmetic is compiled into the AVX2 TU.
 */

#ifndef UNIZK_PLONK_QUOTIENT_KERNEL_H
#define UNIZK_PLONK_QUOTIENT_KERNEL_H

#include <algorithm>
#include <cstddef>

#include "common/bits.h"
#include "field/goldilocks_simd.h"

namespace unizk {

/**
 * Columns and constants of the combination, all canonical. Columns hold
 * `points` values in bit-reversed order.
 */
struct PlonkQuotientInputs
{
    size_t points = 0;   ///< domain size: a power of two, at least
                         ///< 4 and kSimdBatchWidth
    size_t rotation = 0; ///< natural-order steps from x to w x
    size_t reps = 0;
    size_t numPublic = 0;
    const Fp *selectors[5] = {}; ///< q_l, q_r, q_o, q_m, q_c
    const Fp *sigmas[3] = {};
    const Fp *xs = nullptr; ///< the domain points x_i
    const Fp *l1 = nullptr; ///< L_1(x_i)
    /** L_row(x_i) of public row k, numPublic columns. */
    const Fp *const *lagrangePublic = nullptr;
    /** a, b, c of repetition r at 3r, 3r + 1, 3r + 2. */
    const Fp *const *wires = nullptr;
    const Fp *const *z = nullptr; ///< Z of repetition r
    /** -(public value k of repetition r) at r * numPublic + k. */
    const Fp *negPublic = nullptr;
    /** alpha^(3r + t): t = 0 gate, 1 permutation, 2 L_1 term. */
    const Fp *alphas = nullptr;
    Fp betaShift[3];  ///< beta * k_j (plonkCosetShift)
    Fp beta;
    Fp gamma;
    /** 1 / Z_H on quarter q of the stored points, [q/4, (q+1)/4). */
    Fp zhInverse[4];
};

/**
 * out[s] for stored points s in [lo, hi), both multiples of
 * kSimdBatchWidth, on the lanes of @p level (which must be available).
 */
void plonkQuotientRange(SimdLevel level, const PlonkQuotientInputs &in,
                        Fp *out, size_t lo, size_t hi);

/**
 * Every point, on the pool at activeSimdLevel(). Chunks write disjoint
 * groups of points, so the result is the same at every thread count.
 */
void plonkQuotient(const PlonkQuotientInputs &in, Fp *out);

/**
 * Points per block of the kernel: each repetition's columns are read
 * as one contiguous block-sized run (a few prefetchable streams), not
 * 4 x reps streams advancing together, which at 45 repetitions
 * defeats the hardware prefetcher.
 */
constexpr size_t kPlonkQuotientBlock = 256;

/** The kernel body over lane type @p V (see file docs). */
template <typename V>
void
plonkQuotientGroups(const PlonkQuotientInputs &in, Fp *out, size_t lo,
                    size_t hi)
{
    constexpr size_t W = kSimdBatchWidth;
    constexpr size_t kGroups = kPlonkQuotientBlock / W;
    const V zero = V::broadcast(Fp::zero());
    const V one = V::broadcast(Fp::one());
    const V beta = V::broadcast(in.beta);
    const V gamma = V::broadcast(in.gamma);
    V beta_shift[3];
    for (size_t j = 0; j < 3; ++j)
        beta_shift[j] = V::broadcast(in.betaShift[j]);
    const uint32_t log_points = log2Exact(in.points);

    // Per block, shared by every repetition: the stored index of w x,
    // the canonical halves beta k_j x + gamma and beta s_j + gamma of
    // the permutation factors, and one accumulator per lane group.
    size_t next[kPlonkQuotientBlock];
    V f_pt[3][kGroups], g_pt[3][kGroups], acc[kGroups];
    for (size_t block = lo; block < hi; block += kPlonkQuotientBlock) {
        const size_t groups =
            std::min(hi - block, kPlonkQuotientBlock) / W;
        for (size_t g = 0; g < groups; ++g) {
            const size_t i = block + g * W;
            for (size_t k = 0; k < W; ++k)
                next[g * W + k] =
                    rotateBitReversed(i + k, in.rotation, log_points);
            const V x = V::load(in.xs + i);
            for (size_t j = 0; j < 3; ++j) {
                f_pt[j][g] =
                    V::canonical(V::mulAdd(gamma, beta_shift[j], x));
                g_pt[j][g] = V::canonical(
                    V::mulAdd(gamma, beta, V::load(in.sigmas[j] + i)));
            }
            acc[g] = zero;
        }
        for (size_t r = 0; r < in.reps; ++r) {
            const Fp *wa = in.wires[3 * r];
            const Fp *wb = in.wires[3 * r + 1];
            const Fp *wc = in.wires[3 * r + 2];
            const Fp *zr = in.z[r];
            const Fp *alpha = in.alphas + 3 * r;
            const V alpha0 = V::broadcast(alpha[0]);
            const V alpha1 = V::broadcast(alpha[1]);
            const V alpha2 = V::broadcast(alpha[2]);
            for (size_t g = 0; g < groups; ++g) {
                const size_t i = block + g * W;
                const size_t *nx = next + g * W;
                const V a = V::load(wa + i);
                const V b = V::load(wb + i);
                const V c = V::load(wc + i);
                const V z = V::load(zr + i);
                Fp lanes[W];
                for (size_t k = 0; k < W; ++k)
                    lanes[k] = zr[nx[k]];
                const V z_w = V::load(lanes);

                V gate = V::mulAdd(
                    V::mulAdd(
                        V::mulAdd(V::mulAdd(V::load(in.selectors[4] + i),
                                            V::load(in.selectors[0] + i),
                                            a),
                                  V::load(in.selectors[1] + i), b),
                        V::load(in.selectors[2] + i), c),
                    V::mul(V::load(in.selectors[3] + i), a), b);
                for (size_t k = 0; k < in.numPublic; ++k)
                    gate = V::mulAdd(
                        gate, V::load(in.lagrangePublic[k] + i),
                        V::broadcast(in.negPublic[r * in.numPublic + k]));

                // a, b, c are canonical loads; the point halves are
                // canonical, so each add() meets its contract.
                const V f = V::mul(V::mul(V::add(a, f_pt[0][g]),
                                          V::add(b, f_pt[1][g])),
                                   V::add(c, f_pt[2][g]));
                const V gp = V::mul(V::mul(V::add(a, g_pt[0][g]),
                                           V::add(b, g_pt[1][g])),
                                    V::add(c, g_pt[2][g]));
                // Z(w x) g - Z(x) f, with -Z(x) = 0 - z for canonical z.
                const V perm =
                    V::mulAdd(V::mul(z_w, gp), V::sub(zero, z), f);
                const V l1_term =
                    V::mul(V::load(in.l1 + i), V::sub(z, one));

                // The repetition's term is reduced apart from the
                // accumulator, so the chain carried from one repetition
                // to the next is one add of a canonical term.
                V term = V::mul(gate, alpha0);
                term = V::mulAdd(term, perm, alpha1);
                term = V::mulAdd(term, l1_term, alpha2);
                acc[g] = V::add(acc[g], V::canonical(term));
            }
        }
        // 1 / Z_H per lane, constant per group unless a quarter of the
        // domain is narrower than one.
        for (size_t g = 0; g < groups; ++g) {
            const size_t i = block + g * W;
            Fp zh_inv[W];
            for (size_t k = 0; k < W; ++k)
                zh_inv[k] = in.zhInverse[(i + k) >> (log_points - 2)];
            V::mul(acc[g], V::load(zh_inv)).store(out + i);
        }
    }
}

#if defined(UNIZK_HAVE_AVX2)
/** The AVX2 instantiation (quotient_kernel_avx2.cpp). */
void plonkQuotientGroupsAvx2(const PlonkQuotientInputs &in, Fp *out,
                             size_t lo, size_t hi);
#endif

} // namespace unizk

#endif // UNIZK_PLONK_QUOTIENT_KERNEL_H
