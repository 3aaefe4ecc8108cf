/**
 * @file
 * Oracles shared by the test suites.
 */

#ifndef UNIZK_TESTS_TEST_COMMON_H
#define UNIZK_TESTS_TEST_COMMON_H

#include <vector>

#include "field/extension.h"
#include "field/goldilocks.h"

namespace unizk {

/**
 * The polynomial with coefficients @p coeffs (coeffs[i] multiplies
 * X^i) evaluated at @p x by Horner's rule; T is Fp or Fp2.
 */
template <typename T>
T
horner(const Fp *coeffs, size_t len, T x)
{
    T acc{};
    for (size_t i = len; i-- > 0;)
        acc = acc * x + T(coeffs[i]);
    return acc;
}

template <typename T>
T
horner(const std::vector<Fp> &coeffs, T x)
{
    return horner(coeffs.data(), coeffs.size(), x);
}

} // namespace unizk

#endif // UNIZK_TESTS_TEST_COMMON_H
