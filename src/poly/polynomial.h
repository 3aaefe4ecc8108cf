/**
 * @file
 * Univariate polynomials over the Goldilocks field, in coefficient form,
 * plus the element-wise value-vector helpers the PIOP layer uses.
 *
 * The protocol code mostly works on *evaluation vectors* over power-of-two
 * subgroups; the Polynomial class is used when explicit coefficient-form
 * manipulation (division, opening quotients) is required.
 */

#ifndef UNIZK_POLY_POLYNOMIAL_H
#define UNIZK_POLY_POLYNOMIAL_H

#include <cstdint>
#include <vector>

#include "field/extension.h"
#include "field/goldilocks.h"

namespace unizk {

/** Dense univariate polynomial; coeffs[i] multiplies X^i. */
class Polynomial
{
  public:
    Polynomial() = default;

    explicit Polynomial(std::vector<Fp> coeffs) : coeffs_(std::move(coeffs))
    {
        trim();
    }

    /** The constant polynomial c. */
    static Polynomial constant(Fp c);

    /** The monomial c * X^d. */
    static Polynomial monomial(Fp c, size_t d);

    const std::vector<Fp> &coeffs() const { return coeffs_; }

    bool isZero() const { return coeffs_.empty(); }

    /** Degree; the zero polynomial reports degree 0. */
    size_t degree() const { return coeffs_.empty() ? 0 : coeffs_.size() - 1; }

    /** Coefficient of X^i (0 beyond the stored degree). */
    Fp
    coeff(size_t i) const
    {
        return i < coeffs_.size() ? coeffs_[i] : Fp::zero();
    }

    /** Evaluate at a base-field point (Horner). */
    Fp eval(Fp x) const;

    /** Evaluate at an extension-field point. */
    Fp2 evalExt(Fp2 x) const;

    Polynomial operator+(const Polynomial &o) const;
    Polynomial operator-(const Polynomial &o) const;

    /** Product; uses NTT above a size threshold, schoolbook below. */
    Polynomial operator*(const Polynomial &o) const;

    /** Scale all coefficients. */
    Polynomial scaled(Fp c) const;

    /**
     * Divide by the linear factor (X - z) using synthetic (Ruffini)
     * division. @p remainder receives p(z).
     */
    Polynomial divideByLinear(Fp z, Fp *remainder = nullptr) const;

    /**
     * General polynomial long division.
     * @return quotient; @p remainder_out receives the remainder.
     */
    Polynomial longDivide(const Polynomial &divisor,
                          Polynomial *remainder_out = nullptr) const;

    friend bool
    operator==(const Polynomial &a, const Polynomial &b)
    {
        return a.coeffs_ == b.coeffs_;
    }

    /**
     * Interpolate the unique polynomial of degree < n through the points
     * (xs[i], ys[i]) by Lagrange's formula. O(n^2); intended for small n
     * (e.g. FRI final-polynomial checks in tests).
     */
    static Polynomial interpolate(const std::vector<Fp> &xs,
                                  const std::vector<Fp> &ys);

  private:
    void trim();

    std::vector<Fp> coeffs_;
};

/**
 * Element-wise value-vector operations. These correspond to the
 * "polynomial computations" kernel class in the paper (Table 1) and are
 * what the UniZK vector mode executes.
 * @{
 */
std::vector<Fp> vecAdd(const std::vector<Fp> &a, const std::vector<Fp> &b);
std::vector<Fp> vecSub(const std::vector<Fp> &a, const std::vector<Fp> &b);
std::vector<Fp> vecMul(const std::vector<Fp> &a, const std::vector<Fp> &b);
std::vector<Fp> vecScale(const std::vector<Fp> &a, Fp c);
std::vector<Fp> vecAddScalar(const std::vector<Fp> &a, Fp c);
/** @} */

/**
 * Evaluate every coefficient vector of @p coeffs (lengths may differ)
 * at the extension point @p z: one shared table of z's powers, then
 * two fpDot calls per polynomial. Equal to Polynomial::evalExt on each.
 */
std::vector<Fp2> evalEachExt(const std::vector<std::vector<Fp>> &coeffs,
                             Fp2 z);

/**
 * Quotient-chunk products (paper Eq. 1): h[i] = prod of each
 * @p chunk_size -element chunk of q. q.size() must be a multiple of
 * chunk_size.
 */
std::vector<Fp> quotientChunkProducts(const std::vector<Fp> &q,
                                      size_t chunk_size);

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
