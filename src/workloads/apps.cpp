#include "workloads/apps.h"

#include "common/bits.h"
#include "common/rng.h"

namespace unizk {

const char *
appName(AppId app)
{
    switch (app) {
      case AppId::Factorial:
        return "Factorial";
      case AppId::Fibonacci:
        return "Fibonacci";
      case AppId::Ecdsa:
        return "ECDSA";
      case AppId::Sha256:
        return "SHA-256";
      case AppId::ImageCrop:
        return "Image Crop";
      case AppId::Mvm:
        return "MVM";
      case AppId::Recursion:
        return "Recursion";
      default:
        unizk_panic("unknown app");
    }
}

const char *
appToken(AppId app)
{
    switch (app) {
      case AppId::Factorial:
        return "factorial";
      case AppId::Fibonacci:
        return "fibonacci";
      case AppId::Ecdsa:
        return "ecdsa";
      case AppId::Sha256:
        return "sha256";
      case AppId::ImageCrop:
        return "image-crop";
      case AppId::Mvm:
        return "mvm";
      case AppId::Recursion:
        return "recursion";
      default:
        unizk_panic("unknown app");
    }
}

AppId
appFromToken(const std::string &token, const std::string &origin)
{
    static const AppId all[] = {
        AppId::Factorial, AppId::Fibonacci, AppId::Ecdsa,
        AppId::Sha256,    AppId::ImageCrop, AppId::Mvm,
        AppId::Recursion};
    for (const AppId app : all) {
        if (token == appToken(app))
            return app;
    }
    unizk_fatal(origin, ": unknown app \"", token,
                "\" (expected factorial, fibonacci, ecdsa, sha256, "
                "image-crop, mvm, or recursion)");
}

WorkloadParams
defaultParams(AppId app, uint32_t scale)
{
    // Row counts keep the paper's relative proving-cost ordering
    // (Factorial ~ SHA-256 > MVM > Image Crop > ECDSA > Fibonacci) at
    // laptop scale; `scale` shifts everything up toward the paper's
    // 2^20-row configurations.
    WorkloadParams p;
    switch (app) {
      case AppId::Factorial:
        p.rows = size_t{1} << 13;
        break;
      case AppId::Fibonacci:
        p.rows = size_t{1} << 9;
        break;
      case AppId::Ecdsa:
        p.rows = size_t{1} << 10;
        break;
      case AppId::Sha256:
        p.rows = size_t{1} << 13;
        break;
      case AppId::ImageCrop:
        p.rows = size_t{1} << 12;
        break;
      case AppId::Mvm:
        p.rows = size_t{1} << 12;
        p.repetitions = 133; // ~400-column trace (paper Sec. 7.1)
        break;
      case AppId::Recursion:
        p.rows = size_t{1} << 12; // Plonky2 verifier-circuit size
        break;
    }
    p.rows <<= scale;
    return p;
}

namespace {

/**
 * Factorial chain: acc_{i+1} = (i+1) * acc_i as one linear gate per
 * step (the scale factor lives in the selector).
 */
PlonkApp
buildFactorial(size_t rows, size_t reps, uint64_t seed)
{
    CircuitBuilder b;
    const Var acc0 = b.input();
    Var acc = acc0;
    for (size_t i = 1; b.gateCount() + 1 < rows; ++i)
        acc = b.linear(Fp(i + 1), acc, Fp::zero(), acc, Fp::zero());

    PlonkApp app{b.build(rows), {}};
    SplitMix64 rng(seed);
    for (size_t r = 0; r < reps; ++r)
        app.witnesses.push_back({randomFp(rng)});
    return app;
}

/** Fibonacci chain: one addition gate per step. */
PlonkApp
buildFibonacci(size_t rows, size_t reps, uint64_t seed)
{
    CircuitBuilder b;
    Var a = b.input();
    Var bb = b.input();
    while (b.gateCount() + 1 < rows) {
        const Var next = b.add(a, bb);
        a = bb;
        bb = next;
    }
    PlonkApp app{b.build(rows), {}};
    SplitMix64 rng(seed);
    for (size_t r = 0; r < reps; ++r)
        app.witnesses.push_back({randomFp(rng), randomFp(rng)});
    return app;
}

/**
 * ECDSA-style ladder: elliptic-curve double-and-add is a mul-heavy
 * pattern (~6 muls + 3 adds per step on projective coordinates).
 */
PlonkApp
buildEcdsa(size_t rows, size_t reps, uint64_t seed)
{
    CircuitBuilder b;
    Var x = b.input();
    Var y = b.input();
    while (b.gateCount() + 9 < rows) {
        const Var x2 = b.mul(x, x);
        const Var y2 = b.mul(y, y);
        const Var xy = b.mul(x, y);
        const Var t1 = b.add(x2, y2);
        const Var t2 = b.mul(t1, xy);
        const Var t3 = b.linear(Fp(3), x2, Fp(2), y2, Fp(7));
        const Var t4 = b.mul(t2, t3);
        x = b.add(t4, x);
        y = b.add(t2, y);
    }
    PlonkApp app{b.build(rows), {}};
    SplitMix64 rng(seed);
    for (size_t r = 0; r < reps; ++r)
        app.witnesses.push_back({randomFp(rng), randomFp(rng)});
    return app;
}

/**
 * SHA-256-style rounds: per round a balanced mix of multiplicative
 * "choice/majority" mixing and additive sigma chains over a rotating
 * working state.
 */
PlonkApp
buildSha256(size_t rows, size_t reps, uint64_t seed)
{
    CircuitBuilder b;
    std::array<Var, 8> state;
    for (auto &v : state)
        v = b.input();
    size_t round = 0;
    while (b.gateCount() + 8 < rows) {
        const Var ch = b.mul(state[4], state[5]);
        const Var maj1 = b.mul(state[0], state[1]);
        const Var maj2 = b.mul(state[1], state[2]);
        const Var s1 = b.linear(Fp(17), state[4], Fp(19), state[7],
                                Fp(round + 1));
        const Var t1 = b.add(ch, s1);
        const Var t2 = b.add(maj1, maj2);
        // Rotate the working state as SHA-256 does.
        for (size_t i = 7; i > 0; --i)
            state[i] = state[i - 1];
        state[0] = b.add(t1, t2);
        state[4] = b.add(state[4], t1);
        ++round;
    }
    PlonkApp app{b.build(rows), {}};
    SplitMix64 rng(seed);
    for (size_t r = 0; r < reps; ++r) {
        std::vector<Fp> in(8);
        for (auto &x : in)
            x = randomFp(rng);
        app.witnesses.push_back(std::move(in));
    }
    return app;
}

/**
 * Image Crop: dominated by data movement -- long runs of identity /
 * linear gates selecting the cropped region, with light blending
 * arithmetic (the zkedit-style workload).
 */
PlonkApp
buildImageCrop(size_t rows, size_t reps, uint64_t seed)
{
    CircuitBuilder b;
    Var px = b.input();
    Var alpha = b.input();
    size_t i = 0;
    while (b.gateCount() + 3 < rows) {
        // Copy/selection gates (region passthrough).
        const Var copy =
            b.linear(Fp::one(), px, Fp::zero(), px, Fp::zero());
        const Var blend = b.linear(Fp(255), alpha, Fp::one(), copy,
                                   Fp(i & 0xff));
        px = (i % 7 == 0) ? b.mul(blend, alpha) : blend;
        ++i;
    }
    PlonkApp app{b.build(rows), {}};
    SplitMix64 rng(seed);
    for (size_t r = 0; r < reps; ++r)
        app.witnesses.push_back({randomFp(rng), randomFp(rng)});
    return app;
}

/** MVM: row-by-row dot products, pure multiply-accumulate. */
PlonkApp
buildMvm(size_t rows, size_t reps, uint64_t seed)
{
    CircuitBuilder b;
    Var x = b.input();
    Var acc = b.input();
    size_t i = 0;
    while (b.gateCount() + 2 < rows) {
        const Var prod =
            b.linear(Fp(i * 2654435761u % 65521 + 1), x, Fp::zero(), x,
                     Fp::zero());
        acc = b.add(acc, prod);
        ++i;
    }
    PlonkApp app{b.build(rows), {}};
    SplitMix64 rng(seed);
    for (size_t r = 0; r < reps; ++r)
        app.witnesses.push_back({randomFp(rng), randomFp(rng)});
    return app;
}

/**
 * Recursion: a circuit shaped like the Plonky2 recursive verifier --
 * hash-heavy (Poseidon-round-like S-box chains) plus field arithmetic
 * for FRI folding checks, at the canonical 2^12-row verifier size.
 */
PlonkApp
buildRecursion(size_t rows, size_t reps, uint64_t seed)
{
    CircuitBuilder b;
    Var s = b.input();
    Var t = b.input();
    while (b.gateCount() + 6 < rows) {
        // x^7 S-box chain (3 muls) as in in-circuit Poseidon.
        const Var s2 = b.mul(s, s);
        const Var s3 = b.mul(s2, s);
        const Var s7 = b.mul(s3, s2 /* x^5 */);
        // Folding arithmetic.
        const Var f = b.linear(Fp(2), s7, Fp(3), t, Fp(5));
        t = b.add(f, s);
        s = b.add(s7, t);
    }
    PlonkApp app{b.build(rows), {}};
    SplitMix64 rng(seed);
    for (size_t r = 0; r < reps; ++r)
        app.witnesses.push_back({randomFp(rng), randomFp(rng)});
    return app;
}

// ---------------------------------------------------------------------
// Starky AETs
// ---------------------------------------------------------------------

/** Paper Figure 2's AET: x0' = x1, x1' = x0 + x1. */
class FibonacciAir : public StarkAir
{
  public:
    explicit FibonacciAir(Fp last_) : last(last_) {}

    size_t numColumns() const override { return 2; }
    size_t numConstraints() const override { return 2; }

    template <typename F>
    void
    evalT(const std::vector<F> &local, const std::vector<F> &next,
          std::vector<F> &out) const
    {
        out[0] = next[0] - local[1];
        out[1] = next[1] - (local[0] + local[1]);
    }

    void
    evalTransition(const std::vector<Fp> &local,
                   const std::vector<Fp> &next,
                   std::vector<Fp> &out) const override
    {
        evalT(local, next, out);
    }

    void
    evalTransitionExt(const std::vector<Fp2> &local,
                      const std::vector<Fp2> &next,
                      std::vector<Fp2> &out) const override
    {
        evalT(local, next, out);
    }

    std::vector<BoundaryConstraint>
    boundaries() const override
    {
        return {{0, false, Fp(0)}, {1, false, Fp(1)}, {1, true, last}};
    }

  private:
    Fp last;
};

/** Factorial AET: columns (i, acc); acc' = acc * (i + 1), i' = i + 1. */
class FactorialAir : public StarkAir
{
  public:
    explicit FactorialAir(Fp last_) : last(last_) {}

    size_t numColumns() const override { return 2; }
    size_t numConstraints() const override { return 2; }

    template <typename F>
    void
    evalT(const std::vector<F> &local, const std::vector<F> &next,
          std::vector<F> &out) const
    {
        out[0] = next[0] - local[0] - F(Fp::one());
        out[1] = next[1] - local[1] * next[0];
    }

    void
    evalTransition(const std::vector<Fp> &local,
                   const std::vector<Fp> &next,
                   std::vector<Fp> &out) const override
    {
        evalT(local, next, out);
    }

    void
    evalTransitionExt(const std::vector<Fp2> &local,
                      const std::vector<Fp2> &next,
                      std::vector<Fp2> &out) const override
    {
        evalT(local, next, out);
    }

    std::vector<BoundaryConstraint>
    boundaries() const override
    {
        return {{0, false, Fp(1)}, {1, false, Fp(1)}, {1, true, last}};
    }

  private:
    Fp last;
};

/**
 * SHA-256-style AET: a 16-column rotating mix, one row per round, with
 * the first row pinned to the (message-derived) initial state.
 */
class Sha256Air : public StarkAir
{
  public:
    explicit Sha256Air(std::vector<Fp> first_row)
        : first(std::move(first_row))
    {}

    static constexpr size_t cols = 16;

    size_t numColumns() const override { return cols; }
    size_t numConstraints() const override { return cols; }

    template <typename F>
    void
    evalT(const std::vector<F> &local, const std::vector<F> &next,
          std::vector<F> &out) const
    {
        for (size_t j = 0; j + 1 < cols; ++j) {
            out[j] = next[j] -
                     (local[(j + 1) % cols] * local[(j + 2) % cols] +
                      local[j]);
        }
        out[cols - 1] = next[cols - 1] - (local[0] + local[1]);
    }

    void
    evalTransition(const std::vector<Fp> &local,
                   const std::vector<Fp> &next,
                   std::vector<Fp> &out) const override
    {
        evalT(local, next, out);
    }

    void
    evalTransitionExt(const std::vector<Fp2> &local,
                      const std::vector<Fp2> &next,
                      std::vector<Fp2> &out) const override
    {
        evalT(local, next, out);
    }

    std::vector<BoundaryConstraint>
    boundaries() const override
    {
        std::vector<BoundaryConstraint> b;
        for (size_t j = 0; j < cols; ++j)
            b.push_back({j, false, first[j]});
        return b;
    }

  private:
    std::vector<Fp> first;
};

std::vector<std::vector<Fp>>
rollTrace(const StarkAir &air, std::vector<Fp> row, size_t rows)
{
    const size_t cols = air.numColumns();
    std::vector<std::vector<Fp>> trace(cols, std::vector<Fp>(rows));
    std::vector<Fp> next(cols), out(air.numConstraints());
    for (size_t i = 0; i < rows; ++i) {
        for (size_t c = 0; c < cols; ++c)
            trace[c][i] = row[c];
        if (i + 1 == rows)
            break;
        // Solve the next row from the transition rules by construction;
        // each AIR here defines next as an explicit function of local.
        if (cols == 2) {
            // Fibonacci / Factorial: distinguish by probing constraint
            // structure is overkill -- both are handled by the caller
            // instead.
            unizk_panic("rollTrace: 2-column AETs filled by caller");
        }
        for (size_t j = 0; j + 1 < cols; ++j)
            next[j] = row[(j + 1) % cols] * row[(j + 2) % cols] + row[j];
        next[cols - 1] = row[0] + row[1];
        row = next;
    }
    return trace;
}

} // namespace

PlonkApp
buildPlonkApp(AppId app, size_t rows, size_t repetitions, uint64_t seed)
{
    unizk_assert(rows >= 16, "workloads need at least 16 rows");
    switch (app) {
      case AppId::Factorial:
        return buildFactorial(rows, repetitions, seed);
      case AppId::Fibonacci:
        return buildFibonacci(rows, repetitions, seed);
      case AppId::Ecdsa:
        return buildEcdsa(rows, repetitions, seed);
      case AppId::Sha256:
        return buildSha256(rows, repetitions, seed);
      case AppId::ImageCrop:
        return buildImageCrop(rows, repetitions, seed);
      case AppId::Mvm:
        return buildMvm(rows, repetitions, seed);
      case AppId::Recursion:
        return buildRecursion(rows, repetitions, seed);
      default:
        unizk_panic("unknown app");
    }
}

bool
hasStarkImplementation(AppId app)
{
    return app == AppId::Factorial || app == AppId::Fibonacci ||
           app == AppId::Sha256;
}

StarkApp
buildStarkApp(AppId app, size_t rows)
{
    unizk_assert(isPowerOfTwo(rows), "trace rows must be a power of two");
    StarkApp out;
    switch (app) {
      case AppId::Fibonacci: {
        std::vector<std::vector<Fp>> cols(2, std::vector<Fp>(rows));
        Fp a(0), b(1);
        for (size_t i = 0; i < rows; ++i) {
            cols[0][i] = a;
            cols[1][i] = b;
            const Fp n = a + b;
            a = b;
            b = n;
        }
        out.air = std::make_unique<FibonacciAir>(cols[1].back());
        out.trace = std::move(cols);
        return out;
      }
      case AppId::Factorial: {
        std::vector<std::vector<Fp>> cols(2, std::vector<Fp>(rows));
        Fp i_val(1), acc(1);
        for (size_t i = 0; i < rows; ++i) {
            cols[0][i] = i_val;
            cols[1][i] = acc;
            i_val += Fp::one();
            acc *= i_val;
        }
        out.air = std::make_unique<FactorialAir>(cols[1].back());
        out.trace = std::move(cols);
        return out;
      }
      case AppId::Sha256: {
        std::vector<Fp> first(Sha256Air::cols);
        for (size_t j = 0; j < first.size(); ++j)
            first[j] = Fp(0x6a09e667f3bcc908ULL + j * 0x9e3779b9ULL);
        Sha256Air air(first);
        out.trace = rollTrace(air, first, rows);
        out.air = std::make_unique<Sha256Air>(first);
        return out;
      }
      default:
        unizk_panic("no Starky implementation for ", appName(app));
    }
}

} // namespace unizk
