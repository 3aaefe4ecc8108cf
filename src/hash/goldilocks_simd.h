/**
 * @file
 * Former home of the Goldilocks lane layer, which now lives in
 * src/field (field/goldilocks_simd.h) so the NTT and the Poseidon batch
 * kernel share it. Kept so existing includes -- perfbench among them --
 * still compile; new code includes the field header directly.
 */

#ifndef UNIZK_HASH_GOLDILOCKS_SIMD_H
#define UNIZK_HASH_GOLDILOCKS_SIMD_H

#include "field/goldilocks_simd.h"

#endif // UNIZK_HASH_GOLDILOCKS_SIMD_H
