#include "poly/polynomial.h"

#include <algorithm>

#include "common/bits.h"
#include "common/thread_pool.h"

namespace unizk {

std::vector<Fp>
vecMul(const std::vector<Fp> &a, const std::vector<Fp> &b)
{
    unizk_assert(a.size() == b.size(), "vecMul size mismatch");
    std::vector<Fp> out(a.size());
    for (size_t i = 0; i < a.size(); ++i)
        out[i] = a[i] * b[i];
    return out;
}

std::vector<Fp>
partialProducts(const std::vector<Fp> &h)
{
    std::vector<Fp> pp(h.size());
    Fp acc = Fp::one();
    for (size_t i = 0; i < h.size(); ++i) {
        acc *= h[i];
        pp[i] = acc;
    }
    return pp;
}

std::vector<Fp>
partialProductsGrouped(const std::vector<Fp> &h, size_t group_size)
{
    unizk_assert(group_size > 0, "group size must be positive");
    const size_t num_groups = ceilDiv(h.size(), group_size);
    std::vector<Fp> pp(h.size());

    // Step 1: local partial products Z_k[j] within each group (each PE
    // works on its own register-file group, Fig. 6b step 1).
    for (size_t k = 0; k < num_groups; ++k) {
        const size_t base = k * group_size;
        const size_t len = std::min(group_size, h.size() - base);
        Fp acc = Fp::one();
        for (size_t j = 0; j < len; ++j) {
            acc *= h[base + j];
            pp[base + j] = acc;
        }
    }

    // Step 2: propagate each group's last product to the next neighbor
    // (the serial systolic chain).
    std::vector<Fp> prefix(num_groups, Fp::one());
    for (size_t k = 1; k < num_groups; ++k) {
        const size_t last = std::min(k * group_size, h.size()) - 1;
        prefix[k] = prefix[k - 1] * pp[last];
    }

    // Step 3: each PE scales its local products by the received prefix.
    for (size_t k = 1; k < num_groups; ++k) {
        const size_t base = k * group_size;
        const size_t len = std::min(group_size, h.size() - base);
        for (size_t j = 0; j < len; ++j)
            pp[base + j] *= prefix[k];
    }
    return pp;
}

std::vector<Fp>
bitReversedCosetPoints(size_t size, Fp shift)
{
    const uint32_t log_size = log2Exact(size);
    const Fp w = Fp::primitiveRootOfUnity(log_size);
    std::vector<Fp> out(size);
    // Each chunk starts its power chain at shift * w^lo, so the points
    // are the same at every thread count.
    parallelFor(0, size, /*grain=*/4096, [&](size_t lo, size_t hi) {
        Fp cur = shift * w.pow(lo);
        for (size_t j = lo; j < hi; ++j) {
            out[reverseBits(j, log_size)] = cur;
            cur *= w;
        }
    });
    return out;
}

std::vector<Fp>
vanishingOnCoset(size_t n, uint32_t blowup, Fp shift)
{
    // Z_H(shift * w^i) = shift^N * (w^N)^i - 1, w^N of order blowup;
    // block k of the stored points holds i mod blowup = rev(k).
    const uint32_t log_blowup = log2Exact(blowup);
    const Fp w_n = Fp::primitiveRootOfUnity(log2Exact(n * blowup)).pow(n);
    const Fp shift_n = shift.pow(n);
    std::vector<Fp> out(blowup);
    for (uint32_t k = 0; k < blowup; ++k)
        out[k] = shift_n * w_n.pow(reverseBits(k, log_blowup)) - Fp::one();
    return out;
}

std::vector<Fp2>
evalEachExt(const Fp *coeffs, size_t n, size_t count, Fp2 z)
{
    // z^0 .. z^(n-1) once for every polynomial, split into limbs:
    // p(z).limb(l) = sum_k c_k * (z^k).limb(l) for base-field c_k, one
    // lazily reduced dot per limb and polynomial. Each chunk of the
    // power chain starts from its own z^lo, so the table is the same
    // at every thread count.
    std::vector<Fp> pow0(n), pow1(n);
    parallelFor(0, n, /*grain=*/4096, [&](size_t lo, size_t hi) {
        Fp2 cur = z.pow(lo);
        for (size_t k = lo; k < hi; ++k) {
            pow0[k] = cur.limb(0);
            pow1[k] = cur.limb(1);
            cur *= z;
        }
    });
    std::vector<Fp2> out(count);
    parallelFor(0, count, /*grain=*/1, [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
            const Fp *c = coeffs + i * n;
            out[i] = Fp2(fpDot(pow0.data(), c, n), fpDot(pow1.data(), c, n));
        }
    });
    return out;
}

Fp2
recombineChunks(const Fp2 *values, size_t count, Fp2 z, size_t n)
{
    const Fp2 z_n = z.pow(n);
    Fp2 acc, z_pow = Fp2::one();
    for (size_t k = 0; k < count; ++k) {
        acc += values[k] * z_pow;
        z_pow *= z_n;
    }
    return acc;
}

} // namespace unizk
