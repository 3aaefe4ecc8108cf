/**
 * @file
 * Value-vector kernels over the Goldilocks field that the PIOP layer
 * runs on evaluation vectors: coset points and vanishing values of a
 * committed LDE, the quotient partial products (paper Eq. 2, Fig. 6b),
 * and batched evaluation of coefficient vectors at an extension point.
 */

#ifndef UNIZK_POLY_POLYNOMIAL_H
#define UNIZK_POLY_POLYNOMIAL_H

#include <cstdint>
#include <vector>

#include "field/extension.h"
#include "field/goldilocks.h"

namespace unizk {

/**
 * Element-wise product, the "polynomial computations" kernel class of
 * the paper (Table 1) that the UniZK vector mode executes.
 */
std::vector<Fp> vecMul(const std::vector<Fp> &a, const std::vector<Fp> &b);

/**
 * Evaluate each of @p count coefficient vectors of length @p n, stored
 * flat (polynomial k at coeffs[k n, (k + 1) n)), at the extension point
 * @p z: one shared table of z's powers, then two fpDot calls per
 * polynomial. Equal to Horner's rule on each.
 */
std::vector<Fp2> evalEachExt(const Fp *coeffs, size_t n, size_t count,
                             Fp2 z);

/**
 * t(z) = sum_k values[k] * z^(n k) for a polynomial t of degree below
 * count * n split into @p count chunks of @p n coefficients, from the
 * chunks' values at @p z (the Plonk and Stark quotients' openings).
 */
Fp2 recombineChunks(const Fp2 *values, size_t count, Fp2 z, size_t n);

/**
 * Running partial products (paper Eq. 2): PP[i] = h[0] * ... * h[i].
 */
std::vector<Fp> partialProducts(const std::vector<Fp> &h);

/**
 * The grouped three-step partial-product schedule from Figure 6b: split
 * h into groups of @p group_size, compute local partial products, then a
 * serial inter-group propagate, then a local finalize. Functionally equal
 * to partialProducts(); mirrors the hardware mapping so tests can pin
 * down the scheme the simulator models.
 */
std::vector<Fp> partialProductsGrouped(const std::vector<Fp> &h,
                                       size_t group_size);

/**
 * The points of the coset shift * K, |K| = @p size, in a committed
 * LDE's bit-reversed order: out[s] = shift * w^rev(s), w generating K.
 */
std::vector<Fp> bitReversedCosetPoints(size_t size, Fp shift);

/**
 * Z_H(X) = X^N - 1 of the size-N subgroup H over the coset shift*K,
 * |K| = N * blowup, stored bit-reversed. Z_H depends only on natural
 * i mod blowup, fixed on each aligned block of N stored points, so
 * entry k is its value on stored points [k N, (k + 1) N).
 */
std::vector<Fp> vanishingOnCoset(size_t n, uint32_t blowup, Fp shift);

} // namespace unizk

#endif // UNIZK_POLY_POLYNOMIAL_H
