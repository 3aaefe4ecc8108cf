#include "poly/polynomial.h"

#include <algorithm>

#include "common/bits.h"
#include "common/thread_pool.h"
#include "ntt/ntt.h"

namespace unizk {

Polynomial
Polynomial::constant(Fp c)
{
    return Polynomial(std::vector<Fp>{c});
}

Polynomial
Polynomial::monomial(Fp c, size_t d)
{
    std::vector<Fp> coeffs(d + 1, Fp::zero());
    coeffs[d] = c;
    return Polynomial(std::move(coeffs));
}

void
Polynomial::trim()
{
    while (!coeffs_.empty() && coeffs_.back().isZero())
        coeffs_.pop_back();
}

Fp
Polynomial::eval(Fp x) const
{
    Fp acc;
    for (size_t i = coeffs_.size(); i-- > 0;)
        acc = acc * x + coeffs_[i];
    return acc;
}

Fp2
Polynomial::evalExt(Fp2 x) const
{
    Fp2 acc;
    for (size_t i = coeffs_.size(); i-- > 0;)
        acc = acc * x + Fp2(coeffs_[i]);
    return acc;
}

Polynomial
Polynomial::operator+(const Polynomial &o) const
{
    std::vector<Fp> out(std::max(coeffs_.size(), o.coeffs_.size()));
    for (size_t i = 0; i < out.size(); ++i)
        out[i] = coeff(i) + o.coeff(i);
    return Polynomial(std::move(out));
}

Polynomial
Polynomial::operator-(const Polynomial &o) const
{
    std::vector<Fp> out(std::max(coeffs_.size(), o.coeffs_.size()));
    for (size_t i = 0; i < out.size(); ++i)
        out[i] = coeff(i) - o.coeff(i);
    return Polynomial(std::move(out));
}

Polynomial
Polynomial::operator*(const Polynomial &o) const
{
    if (isZero() || o.isZero())
        return Polynomial();

    const size_t out_len = coeffs_.size() + o.coeffs_.size() - 1;
    constexpr size_t ntt_threshold = 64;
    if (out_len < ntt_threshold) {
        std::vector<Fp> out(out_len, Fp::zero());
        for (size_t i = 0; i < coeffs_.size(); ++i)
            for (size_t j = 0; j < o.coeffs_.size(); ++j)
                out[i + j] += coeffs_[i] * o.coeffs_[j];
        return Polynomial(std::move(out));
    }

    const size_t n = nextPowerOfTwo(out_len);
    std::vector<Fp> a(coeffs_), b(o.coeffs_);
    a.resize(n, Fp::zero());
    b.resize(n, Fp::zero());
    // NR/RN pairing: the pointwise product is order-agnostic, so using
    // bit-reversed evaluations skips both permutation passes of the
    // NN/NN round trip.
    nttNR(a);
    nttNR(b);
    for (size_t i = 0; i < n; ++i)
        a[i] *= b[i];
    inttRN(a);
    a.resize(out_len);
    return Polynomial(std::move(a));
}

Polynomial
Polynomial::scaled(Fp c) const
{
    std::vector<Fp> out(coeffs_);
    for (auto &x : out)
        x *= c;
    return Polynomial(std::move(out));
}

Polynomial
Polynomial::divideByLinear(Fp z, Fp *remainder) const
{
    if (coeffs_.empty()) {
        if (remainder)
            *remainder = Fp::zero();
        return Polynomial();
    }
    std::vector<Fp> out(coeffs_.size() - 1);
    Fp carry;
    for (size_t i = coeffs_.size(); i-- > 0;) {
        const Fp c = coeffs_[i] + carry * z;
        if (i == 0) {
            if (remainder)
                *remainder = c;
        } else {
            out[i - 1] = c;
            carry = c;
        }
    }
    return Polynomial(std::move(out));
}

Polynomial
Polynomial::longDivide(const Polynomial &divisor,
                       Polynomial *remainder_out) const
{
    unizk_assert(!divisor.isZero(), "division by zero polynomial");
    std::vector<Fp> rem(coeffs_);
    const size_t d = divisor.coeffs_.size();
    if (rem.size() < d) {
        if (remainder_out)
            *remainder_out = *this;
        return Polynomial();
    }
    const Fp lead_inv = divisor.coeffs_.back().inverse();
    std::vector<Fp> quot(rem.size() - d + 1, Fp::zero());
    for (size_t i = rem.size(); i >= d;) {
        --i;
        const Fp q = rem[i] * lead_inv;
        quot[i - (d - 1)] = q;
        if (!q.isZero()) {
            for (size_t j = 0; j < d; ++j)
                rem[i - (d - 1) + j] -= q * divisor.coeffs_[j];
        }
    }
    if (remainder_out)
        *remainder_out = Polynomial(std::move(rem));
    return Polynomial(std::move(quot));
}

Polynomial
Polynomial::interpolate(const std::vector<Fp> &xs, const std::vector<Fp> &ys)
{
    unizk_assert(xs.size() == ys.size(), "interpolate: size mismatch");
    Polynomial acc;
    for (size_t i = 0; i < xs.size(); ++i) {
        // Basis polynomial L_i(X) = prod_{j != i} (X - x_j)/(x_i - x_j).
        Polynomial basis = Polynomial::constant(Fp::one());
        Fp denom = Fp::one();
        for (size_t j = 0; j < xs.size(); ++j) {
            if (j == i)
                continue;
            basis = basis * Polynomial(
                std::vector<Fp>{xs[j].neg(), Fp::one()});
            denom *= xs[i] - xs[j];
        }
        acc = acc + basis.scaled(ys[i] * denom.inverse());
    }
    return acc;
}

std::vector<Fp>
vecAdd(const std::vector<Fp> &a, const std::vector<Fp> &b)
{
    unizk_assert(a.size() == b.size(), "vecAdd size mismatch");
    std::vector<Fp> out(a.size());
    for (size_t i = 0; i < a.size(); ++i)
        out[i] = a[i] + b[i];
    return out;
}

std::vector<Fp>
vecSub(const std::vector<Fp> &a, const std::vector<Fp> &b)
{
    unizk_assert(a.size() == b.size(), "vecSub size mismatch");
    std::vector<Fp> out(a.size());
    for (size_t i = 0; i < a.size(); ++i)
        out[i] = a[i] - b[i];
    return out;
}

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
vecScale(const std::vector<Fp> &a, Fp c)
{
    std::vector<Fp> out(a.size());
    for (size_t i = 0; i < a.size(); ++i)
        out[i] = a[i] * c;
    return out;
}

std::vector<Fp>
vecAddScalar(const std::vector<Fp> &a, Fp c)
{
    std::vector<Fp> out(a.size());
    for (size_t i = 0; i < a.size(); ++i)
        out[i] = a[i] + c;
    return out;
}

std::vector<Fp>
quotientChunkProducts(const std::vector<Fp> &q, size_t chunk_size)
{
    unizk_assert(chunk_size > 0 && q.size() % chunk_size == 0,
                 "chunk size must divide input length");
    std::vector<Fp> h(q.size() / chunk_size);
    for (size_t i = 0; i < h.size(); ++i) {
        Fp acc = Fp::one();
        for (size_t j = 0; j < chunk_size; ++j)
            acc *= q[i * chunk_size + j];
        h[i] = acc;
    }
    return h;
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
    Fp cur = shift;
    for (size_t j = 0; j < size; ++j) {
        out[reverseBits(j, log_size)] = cur;
        cur *= w;
    }
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
evalEachExt(const std::vector<std::vector<Fp>> &coeffs, Fp2 z)
{
    size_t len = 0;
    for (const auto &c : coeffs)
        len = std::max(len, c.size());
    // z^0 .. z^(len-1) once for every polynomial, split into limbs:
    // p(z).limb(l) = sum_k c_k * (z^k).limb(l) for base-field c_k, one
    // lazily reduced dot per limb and polynomial. Each chunk of the
    // power chain starts from its own z^lo, so the table is the same
    // at every thread count.
    std::vector<Fp> pow0(len), pow1(len);
    parallelFor(0, len, /*grain=*/4096, [&](size_t lo, size_t hi) {
        Fp2 cur = z.pow(lo);
        for (size_t k = lo; k < hi; ++k) {
            pow0[k] = cur.limb(0);
            pow1[k] = cur.limb(1);
            cur *= z;
        }
    });
    std::vector<Fp2> out(coeffs.size());
    parallelFor(0, coeffs.size(), /*grain=*/1, [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
            const auto &c = coeffs[i];
            out[i] = Fp2(fpDot(pow0.data(), c.data(), c.size()),
                         fpDot(pow1.data(), c.data(), c.size()));
        }
    });
    return out;
}

} // namespace unizk
