#include "hash/poseidon.h"

#include <algorithm>

#include "hash/goldilocks_simd.h"

namespace unizk {

namespace {

constexpr uint32_t t = PoseidonConfig::width;
constexpr uint32_t rp = PoseidonConfig::partialRounds;
constexpr uint32_t half = PoseidonConfig::halfFullRounds;

} // namespace

Poseidon::Poseidon() : mds(t, t), pre_matrix(t, t)
{
    generateConstants();
    deriveOptimizedForm();
}

const Poseidon &
Poseidon::instance()
{
    static const Poseidon inst;
    return inst;
}

Fp
Poseidon::sbox(Fp x)
{
    const Fp x2 = x.squared();
    const Fp x3 = x2 * x;
    const Fp x6 = x3.squared();
    return x6 * x;
}

void
Poseidon::generateConstants()
{
    // The tables are generated and checksum-verified at compile time in
    // poseidon_params.h (deterministic nothing-up-my-sleeve derivation,
    // seed "UniZK-Ps"); this just copies them into the member layout the
    // permutation uses.
    const auto &spec_arc = poseidon_params::kRoundConstants;
    arc.assign(spec_arc.begin(), spec_arc.end());

    mds_flat = poseidon_params::kMdsMatrix;
    for (uint32_t i = 0; i < t; ++i)
        for (uint32_t j = 0; j < t; ++j)
            mds.at(i, j) = mds_flat[i * t + j];
}

void
Poseidon::denseMdsApply(PoseidonState &state) const
{
    // Allocation-free matrix-vector product: this is the permutation's
    // hot loop and dominates the CPU baseline's Merkle-tree time.
    PoseidonState out;
    for (uint32_t i = 0; i < t; ++i)
        out[i] = fpDot(&mds_flat[i * t], state.data(), t);
    state = out;
}

void
Poseidon::fullRound(PoseidonState &state, uint32_t round) const
{
    for (uint32_t i = 0; i < t; ++i) {
        state[i] += arc[round][i];
        state[i] = sbox(state[i]);
    }
    denseMdsApply(state);
}

void
Poseidon::permuteNaive(PoseidonState &state) const
{
    for (uint32_t r = 0; r < half; ++r)
        fullRound(state, r);
    for (uint32_t r = 0; r < rp; ++r) {
        // ARC on all lanes, S-box only on lane 0, dense MDS.
        for (uint32_t i = 0; i < t; ++i)
            state[i] += arc[half + r][i];
        state[0] = sbox(state[0]);
        denseMdsApply(state);
    }
    for (uint32_t r = 0; r < half; ++r)
        fullRound(state, half + rp + r);
}

void
Poseidon::deriveOptimizedForm()
{
    // Notation: the partial-round chain is x_{r+1} = M * S(x_r + c_r)
    // with c_r = arc[half + r] and S the lane-0 S-box. We derive an
    // equivalent chain
    //     y_0     = D_0 * (x_0 + beta)                (PrePartialRound)
    //     y_{r+1} = A_r * (S(y_r) + rho_r * e0)       (partial rounds)
    // with y_R = x_R exactly, where
    //     D_r = diag(1, Mhat^(R-r)),
    //     A_r = [[M00, Mv^T * Mhat^-(R-r)], [Mhat^(R-r-1) * Mw, I]],
    // and the constants rho_r / beta obtained by a backward pass.
    // Lane 0 of the affine link m_r must equal c_r[0] so both chains
    // feed the S-box the same value.

    // Split M = [[M00, Mv^T], [Mw, Mhat]].
    const size_t n = t - 1;
    FpMatrix mhat(n, n);
    std::vector<Fp> mv(n), mw(n);
    for (size_t i = 0; i < n; ++i) {
        mv[i] = mds.at(0, i + 1);
        mw[i] = mds.at(i + 1, 0);
        for (size_t j = 0; j < n; ++j)
            mhat.at(i, j) = mds.at(i + 1, j + 1);
    }
    const Fp m00 = mds.at(0, 0);

    // Powers of Mhat: lambda[k] = Mhat^k for k = 0..R.
    std::vector<FpMatrix> lambda(rp + 1);
    lambda[0] = FpMatrix::identity(n);
    for (uint32_t k = 1; k <= rp; ++k)
        lambda[k] = lambda[k - 1].mul(mhat);

    auto mhat_inv_opt = mhat.inverse();
    unizk_assert(mhat_inv_opt.has_value(),
                 "MDS trailing submatrix must be invertible");
    std::vector<FpMatrix> lambda_inv(rp + 1);
    lambda_inv[0] = FpMatrix::identity(n);
    for (uint32_t k = 1; k <= rp; ++k)
        lambda_inv[k] = lambda_inv[k - 1].mul(*mhat_inv_opt);

    // Sparse layers A_r. Lambda_r = lambda[R - r].
    std::vector<FpMatrix> a_full(rp); // dense copies for the constant pass
    for (uint32_t r = 0; r < rp; ++r) {
        SparseMdsLayer &layer = sparse_layers[r];
        layer.row[0] = m00;
        // v^T = Mv^T * Lambda_r^-1, stored as row[1..].
        const FpMatrix &linv = lambda_inv[rp - r];
        for (size_t j = 0; j < n; ++j) {
            Fp acc;
            for (size_t k = 0; k < n; ++k)
                acc += mv[k] * linv.at(k, j);
            layer.row[j + 1] = acc;
        }
        // w = Lambda_{r+1} * Mw  with Lambda_{r+1} = lambda[R - r - 1].
        const FpMatrix &lnext = lambda[rp - r - 1];
        for (size_t i = 0; i < n; ++i) {
            Fp acc;
            for (size_t k = 0; k < n; ++k)
                acc += lnext.at(i, k) * mw[k];
            layer.w[i] = acc;
        }
        // Dense form for the backward constant pass.
        FpMatrix a(t, t);
        a.at(0, 0) = layer.row[0];
        for (size_t j = 0; j < n; ++j) {
            a.at(0, j + 1) = layer.row[j + 1];
            a.at(j + 1, 0) = layer.w[j];
            a.at(j + 1, j + 1) = Fp::one();
        }
        a_full[r] = std::move(a);
    }

    // Backward constant pass: m_R = 0; for r = R-1 .. 0:
    //   q = A_r^-1 * m_{r+1}; rho_r = q[0];
    //   mhat_r = qhat + Lambda_r * chat_r;  m_r[0] = c_r[0].
    std::vector<Fp> m_next(t, Fp::zero());
    for (uint32_t r = rp; r-- > 0;) {
        const auto a_inv = a_full[r].inverse();
        unizk_assert(a_inv.has_value(), "sparse layer must be invertible");
        const std::vector<Fp> q = a_inv->mulVector(m_next);
        partial_constants[r] = q[0];

        const auto &c_r = arc[half + r];
        std::vector<Fp> chat(n);
        for (size_t i = 0; i < n; ++i)
            chat[i] = c_r[i + 1];
        const FpMatrix &lam_r = lambda[rp - r];
        const std::vector<Fp> lam_chat = lam_r.mulVector(chat);

        std::vector<Fp> m_r(t);
        m_r[0] = c_r[0];
        for (size_t i = 0; i < n; ++i)
            m_r[i + 1] = q[i + 1] + lam_chat[i];
        m_next = std::move(m_r);
    }

    // Pre layer: y_0 = D_0 (x_0 + D_0^-1 m_0).
    pre_matrix = FpMatrix(t, t);
    pre_matrix.at(0, 0) = Fp::one();
    for (size_t i = 0; i < n; ++i)
        for (size_t j = 0; j < n; ++j)
            pre_matrix.at(i + 1, j + 1) = lambda[rp].at(i, j);

    FpMatrix d0_inv(t, t);
    d0_inv.at(0, 0) = Fp::one();
    for (size_t i = 0; i < n; ++i)
        for (size_t j = 0; j < n; ++j)
            d0_inv.at(i + 1, j + 1) = lambda_inv[rp].at(i, j);
    const std::vector<Fp> beta = d0_inv.mulVector(m_next);
    for (uint32_t i = 0; i < t; ++i)
        pre_constants[i] = beta[i];

    for (uint32_t i = 0; i < t; ++i)
        for (uint32_t j = 0; j < t; ++j)
            pre_flat[i * t + j] = pre_matrix.at(i, j);
}

void
Poseidon::permute(PoseidonState &state) const
{
    for (uint32_t r = 0; r < half; ++r)
        fullRound(state, r);

    // PrePartialRound: constant add then dense PreMDSMatrix.
    for (uint32_t i = 0; i < t; ++i)
        state[i] += pre_constants[i];
    {
        PoseidonState out;
        for (uint32_t i = 0; i < t; ++i)
            out[i] = fpDot(&pre_flat[i * t], state.data(), t);
        state = out;
    }

    // Partial rounds: sbox lane 0, scalar constant, sparse layer.
    for (uint32_t r = 0; r < rp; ++r) {
        state[0] = sbox(state[0]);
        state[0] += partial_constants[r];

        const SparseMdsLayer &layer = sparse_layers[r];
        const Fp s0 = state[0];
        const Fp new0 = fpDot(layer.row.data(), state.data(), t);
        for (uint32_t i = 0; i + 1 < t; ++i)
            state[i + 1] += layer.w[i] * s0;
        state[0] = new0;
    }

    for (uint32_t r = 0; r < half; ++r)
        fullRound(state, half + rp + r);
}

void
Poseidon::permuteBatch(PoseidonState *states, size_t n) const
{
    const SimdLevel level = activeSimdLevel();
    size_t i = 0;
    for (; i + kSimdBatchWidth <= n; i += kSimdBatchWidth) {
#if defined(UNIZK_HAVE_AVX2)
        if (level == SimdLevel::Avx2) {
            poseidonPermuteBatch4Avx2(*this, states + i);
            continue;
        }
#endif
        poseidonPermuteBatch4Scalar(*this, states + i);
    }
#if defined(UNIZK_HAVE_AVX2)
    // A ragged tail of 2-3 states costs about one scalar permutation
    // as a zero-padded 4-lane call; a single state stays scalar.
    if (level == SimdLevel::Avx2 && n - i >= 2) {
        PoseidonState padded[kSimdBatchWidth] = {};
        std::copy(states + i, states + n, padded);
        poseidonPermuteBatch4Avx2(*this, padded);
        std::copy(padded, padded + (n - i), states + i);
        return;
    }
#else
    (void)level;
#endif
    for (; i < n; ++i)
        permute(states[i]);
}

} // namespace unizk
