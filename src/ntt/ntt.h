/**
 * @file
 * Number-theoretic transforms over the Goldilocks field.
 *
 * Terminology follows the paper (Section 5.1):
 *  - NTT^NN: natural-order input, natural-order output.
 *  - NTT^NR: natural-order input, bit-reversed output (DIF dataflow).
 *  - NTT^RN: bit-reversed input, natural-order output (DIT dataflow).
 *  - coset variants evaluate over a multiplicative coset g*H instead of
 *    the subgroup H, implemented by pre-scaling coefficients with g^i
 *    (forward) or post-scaling with g^-i (inverse).
 *
 * The CPU prover runs three of them: iNTT^NN moves committed values to
 * coefficient form (inttBatchNN), the coset NTT^NR computes the
 * low-degree extension (LDE) inside FRI (lowDegreeExtension /
 * ldeBatch), the two variants highlighted in Figure 1 of the paper, and
 * the coset iNTT^RN recovers the Plonk and Stark quotients'
 * coefficients from their bit-reversed coset evaluations (cosetInttRN).
 * The other variants exist as UniZK kernels only: the kernel trace
 * names them by NttKernel flags and the simulator maps them from those
 * flags.
 *
 * Engine (mirroring SZKP/zkPHIRE twiddle datapaths): every transform
 * consumes precomputed stage-major twiddle tables from the registry in
 * ntt/twiddles.h, so butterflies are table lookups with no loop-carried
 * `w *= w_len` dependency. Stages at least four butterflies wide, and
 * the element-wise scaling passes, run on the Goldilocks lane kernels
 * of activeSimdLevel() (field/goldilocks_simd.h), four butterflies per
 * lane op. Large transforms run pool-parallel through a cache-blocked
 * four-step decomposition: the leading radix-2 stages (the "column NTTs
 * plus inter-dimension twiddles" of the four-step scheme, executed
 * stage by stage across the whole pool) peel the transform into
 * independent contiguous cache-sized sub-transforms (the "row NTTs"),
 * which then run one-per-chunk on the pool reading the same table.
 * Every element sees the same butterflies with the same twiddle values
 * regardless of thread count, SIMD level or cache setting, so proofs
 * stay byte-identical.
 *
 * The batch entry points (inttBatchNN / ldeBatch) commit a whole set of
 * polynomials with one twiddle acquisition and pick the parallel axis
 * automatically: many small polynomials spread across the pool
 * one-per-worker; the few huge ones recursion produces run
 * sequentially, each transform itself pool-parallel.
 */

#ifndef UNIZK_NTT_NTT_H
#define UNIZK_NTT_NTT_H

#include <cstdint>
#include <vector>

#include "field/extension.h"
#include "field/goldilocks.h"
#include "ntt/twiddles.h"

namespace unizk {

/** Default coset shift: the multiplicative-group generator, as in Plonky2. */
inline Fp
defaultCosetShift()
{
    return Fp(Fp::multiplicativeGenerator);
}

/**
 * In-place forward NTT, natural input -> bit-reversed output
 * (decimation-in-frequency). Size must be a power of two.
 */
void nttNR(std::vector<Fp> &a);

/** Coset inverse NTT, bit-reversed input -> natural coefficients. */
void cosetInttRN(std::vector<Fp> &a, Fp shift);

/**
 * Low-degree extension: given N coefficients, zero-pad to N*blowup and
 * evaluate over the coset shift*H' (|H'| = N*blowup). Output is in
 * bit-reversed order, matching the NTT^NR step in FRI (paper Fig. 1,
 * step 2).
 */
std::vector<Fp> lowDegreeExtension(const std::vector<Fp> &coeffs,
                                   uint32_t blowup, Fp shift);

/**
 * Batch API: transforms over @p count polynomials of one power-of-two
 * size @p n, stored flat (polynomial p at [p n, (p + 1) n)), with a
 * single twiddle acquisition and automatic parallel-axis selection (see
 * file docs).
 * @{
 */

/** In-place iNTT^NN of every polynomial (the commit-from-values step). */
void inttBatchNN(Fp *data, size_t n, size_t count);

/**
 * Coset LDE of every coefficient vector, bit-reversed output (the
 * commit step of FRI), written column-major: lowDegreeExtension of
 * polynomial p fills out[p * m, (p + 1) * m), m = n * blowup, and
 * nothing else is read or written.
 */
void ldeBatch(const Fp *coeffs, size_t n, size_t count, uint32_t blowup,
              Fp shift, Fp *out);

/** @} */

/**
 * Reference quadratic-time DFT used by the test suite as ground truth.
 * Output is in natural order: out[i] = sum_j a[j] * (shift*w^i)^j.
 */
std::vector<Fp> naiveDft(const std::vector<Fp> &a, Fp shift);

/** Reference inverse of naiveDft. */
std::vector<Fp> naiveIdft(const std::vector<Fp> &a, Fp shift);

/**
 * Seed-era scalar reference path: single-thread butterfly cores with
 * per-call root recomputation and the sequential twiddle chain. Kept
 * (only) so bench_ntt can report the engine's speedup against the exact
 * code the repository shipped before the twiddle-cached engine, and as
 * an extra equivalence oracle cheaper than naiveDft.
 * @{
 */
void scalarNttNR(std::vector<Fp> &a);
std::vector<Fp> scalarLowDegreeExtension(const std::vector<Fp> &coeffs,
                                         uint32_t blowup, Fp shift);
/** @} */

/**
 * Multi-dimensional NTT decomposition (the SAM scheme the UniZK NTT
 * mapper uses, Section 5.1): computes an NTT^NN of size N by decomposing
 * into dims of size at most 2^log_n_max, performing small NTTs along each
 * dimension with inter-dimension twiddle multiplications in between.
 *
 * Exists to validate the hardware mapping's dataflow and to let tests
 * pin down the inter-dimension twiddle math used by the simulator.
 * Follows the decomposeNttDims plan exactly, so the software dataflow
 * and the simulator's cycle estimates stay in lockstep.
 */
void multidimNttNN(std::vector<Fp> &a, uint32_t log_n_max);

/**
 * Plan of a multi-dimensional decomposition: the log-sizes of each
 * dimension, innermost first. Shared between multidimNttNN and the
 * simulator's NTT mapper.
 *
 * Dimensions are balanced (sizes differ by at most one bit, larger dims
 * first) rather than greedily filled: a greedy split of log 17 with max
 * 8 would yield [8, 8, 1], whose degenerate trailing dimension skews
 * the mapper's cycle estimates versus the paper's balanced splits; the
 * balanced plan is [6, 6, 5].
 */
std::vector<uint32_t> decomposeNttDims(uint32_t log_size,
                                       uint32_t log_n_max);

/**
 * Extension-field inverse NTTs. The evaluation domain still lives in the
 * base field (roots of unity are base-field elements), so twiddles are
 * Fp while values are Fp2. Used for the FRI final polynomial.
 * @{
 */
void inttNNExt(std::vector<Fp2> &a);
void cosetInttNNExt(std::vector<Fp2> &a, Fp shift);
/** @} */

} // namespace unizk

#endif // UNIZK_NTT_NTT_H
