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
horner(const std::vector<Fp> &coeffs, T x)
{
    T acc{};
    for (size_t i = coeffs.size(); i-- > 0;)
        acc = acc * x + T(coeffs[i]);
    return acc;
}

} // namespace unizk

#endif // UNIZK_TESTS_TEST_COMMON_H
