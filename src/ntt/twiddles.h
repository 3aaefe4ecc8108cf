/**
 * @file
 * Twiddle-factor tables for the NTT engine, with a thread-safe,
 * lazily-initialized process-wide registry.
 *
 * The seed NTT cores recomputed their roots on every call and chained
 * twiddles through a sequential `w *= w_len` dependency, which both
 * serializes the inner butterfly loop (each iteration waits on a
 * modular multiply) and redoes identical work for every transform of
 * the same size. SZKP and zkPHIRE organize their NTT datapaths around
 * precomputed twiddle storage for exactly this reason; this header is
 * the software mirror of that idea.
 *
 * A TwiddleTable for log-size k stores, in the layout the DIF/DIT cores
 * consume directly:
 *
 *  - fwd: stage-major twiddles, fwd[h + j] = w_{2h}^j for every stage
 *    half-width h = 1, 2, 4, ..., n/2 and j < h, w_{2h} the primitive
 *    2h-th root (fwd[0] is unused). The stage with block length 2h reads
 *    the contiguous run fwd[h .. 2h), so inner loops are pure table
 *    lookups with no loop-carried dependency, a lane op loads four
 *    consecutive twiddles, and every sub-transform of a four-step split
 *    reads the same table (its stages are a prefix of the layout).
 *  - inv: the same layout for inverse roots, inv[h + j] = w_{2h}^-j.
 *  - cosetFwd[i] = g^i and cosetInv[i] = g^-i for the standard coset
 *    shift g (defaultCosetShift), the pre/post-scaling vectors of the
 *    LDE and its inverse.
 *  - sizeInv = (2^k)^-1, the iNTT normalization constant.
 *
 * Tables are built once per size on first touch (double-checked under a
 * mutex, so concurrent first-touch from pool workers is safe) and live
 * for the process. The cache can be disabled -- per call sites building
 * private tables -- with setTwiddleCacheEnabled(false) or UNIZK_NTT_CACHE=0;
 * proofs are byte-identical either way because field arithmetic is exact
 * and the table entries equal the values the seed code chained to.
 */

#ifndef UNIZK_NTT_TWIDDLES_H
#define UNIZK_NTT_TWIDDLES_H

#include <cstdint>
#include <memory>
#include <vector>

#include "field/goldilocks.h"

namespace unizk {

/** Precomputed twiddle storage for one transform size (see file docs). */
struct TwiddleTable
{
    uint32_t logSize = 0;

    /** fwd[h + j] = w_{2h}^j for stages h < n (empty for n == 1). */
    std::vector<Fp> fwd;

    /** inv[h + j] = w_{2h}^-j, same layout. */
    std::vector<Fp> inv;

    /** cosetFwd[i] = g^i, i < n, g = defaultCosetShift(). */
    std::vector<Fp> cosetFwd;

    /** cosetInv[i] = g^-i, i < n. */
    std::vector<Fp> cosetInv;

    /** n^-1 for iNTT normalization. */
    Fp sizeInv = Fp::one();
};

/**
 * Table for transforms of size 2^log_size. Served from the registry
 * when caching is enabled (and the size is within the cache bound),
 * otherwise freshly built. The returned pointer is always non-null and
 * safe to hold across pool-parallel regions.
 */
std::shared_ptr<const TwiddleTable> acquireTwiddles(uint32_t log_size);

/**
 * Enable/disable the process-wide twiddle cache. Disabling clears the
 * registry; transforms then build private tables per call. Intended for
 * tests and for bounding memory in constrained runs.
 */
void setTwiddleCacheEnabled(bool enabled);

/** Current cache setting (default: on, unless UNIZK_NTT_CACHE=0). */
bool twiddleCacheEnabled();

/** Drop every cached table (keeps the enabled/disabled setting). */
void clearTwiddleCache();

} // namespace unizk

#endif // UNIZK_NTT_TWIDDLES_H
