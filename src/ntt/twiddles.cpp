#include "ntt/twiddles.h"

#include <array>

#include "common/env.h"
#include "common/sync.h"
#include "field/goldilocks.h"
#include "obs/obs.h"

namespace unizk {

namespace {

/**
 * Largest log-size the registry keeps resident. A cached size-2^k
 * table costs 2^k * 16 bytes for fwd+inv combined; 2^26 caps the pair
 * at 1 GiB in the (unrealistic) worst case while covering every
 * transform the benches and recursion-sized LDEs reach. Larger sizes
 * still work -- they build a private table per call.
 */
constexpr uint32_t max_cached_log = 26;

/**
 * Coset-power vectors are full-length (2^k elements each), so they are
 * capped lower; above this the engine falls back to cache-blocked
 * on-the-fly shift powers, which parallelize just as well.
 */
constexpr uint32_t max_coset_log = 22;

/**
 * Fill out[i] = base^i for i < out_len. Deliberately serial: table
 * construction may race in from any thread on first touch (including
 * pool workers mid-region), where submitting a nested parallelFor from
 * a non-worker thread is not allowed. Build cost is one-time per size.
 */
void
fillPowers(Fp *out, size_t out_len, Fp base)
{
    Fp p = Fp::one();
    for (size_t i = 0; i < out_len; ++i) {
        out[i] = p;
        p *= base;
    }
}

/**
 * Fill the stage-major layout out[h + j] = root^(j * n / 2h) for a
 * primitive n-th root: the widest stage (h = n/2) is the power chain,
 * and each narrower stage takes every other entry of the one above.
 */
void
fillStages(std::vector<Fp> &out, size_t n, Fp root)
{
    out.assign(n, Fp::one());
    fillPowers(out.data() + n / 2, n / 2, root);
    for (size_t h = n / 4; h >= 1; h /= 2)
        for (size_t j = 0; j < h; ++j)
            out[h + j] = out[2 * h + 2 * j];
}

std::shared_ptr<const TwiddleTable>
buildTable(uint32_t log_size)
{
    UNIZK_SPAN("ntt/twiddle-build");
    UNIZK_COUNTER_ADD("ntt.twiddle_builds", 1);
    auto t = std::make_shared<TwiddleTable>();
    t->logSize = log_size;
    const size_t n = size_t{1} << log_size;
    t->sizeInv = Fp(static_cast<uint64_t>(n)).inverse();
    if (log_size == 0)
        return t;

    const Fp w = Fp::primitiveRootOfUnity(log_size);
    fillStages(t->fwd, n, w);
    fillStages(t->inv, n, w.inverse());

    if (log_size <= max_coset_log) {
        const Fp g = Fp(Fp::multiplicativeGenerator);
        t->cosetFwd.resize(n);
        t->cosetInv.resize(n);
        fillPowers(t->cosetFwd.data(), n, g);
        fillPowers(t->cosetInv.data(), n, g.inverse());
    }
    return t;
}

struct Registry
{
    Mutex mutex;
    std::array<std::shared_ptr<const TwiddleTable>, Fp::twoAdicity + 1>
        slots UNIZK_GUARDED_BY(mutex);
    bool enabled UNIZK_GUARDED_BY(mutex) = true;
    bool env_checked UNIZK_GUARDED_BY(mutex) = false;
};

Registry &
registry()
{
    static Registry r;
    return r;
}

/** Resolve the UNIZK_NTT_CACHE environment knob once. Strict parse: an
 * unrecognized spelling (e.g. "flase") warns and keeps the cache
 * enabled instead of silently doing so. The annotation makes "caller
 * holds the registry mutex" machine-checked instead of a comment. */
void
resolveEnv(Registry &r) UNIZK_REQUIRES(r.mutex)
{
    if (r.env_checked)
        return;
    r.env_checked = true;
    if (const auto flag = envFlag("UNIZK_NTT_CACHE"))
        r.enabled = *flag;
}

} // namespace

std::shared_ptr<const TwiddleTable>
acquireTwiddles(uint32_t log_size)
{
    unizk_assert(log_size <= Fp::twoAdicity,
                 "transform size exceeds the field's 2-adicity");
    Registry &r = registry();
    if (log_size <= max_cached_log) {
        MutexLock lock(r.mutex);
        resolveEnv(r);
        if (r.enabled) {
            if (!r.slots[log_size])
                r.slots[log_size] = buildTable(log_size);
            return r.slots[log_size];
        }
    }
    return buildTable(log_size);
}

void
setTwiddleCacheEnabled(bool enabled)
{
    Registry &r = registry();
    MutexLock lock(r.mutex);
    r.env_checked = true; // explicit setting wins over the env var
    r.enabled = enabled;
    if (!enabled) {
        for (auto &slot : r.slots)
            slot.reset();
    }
}

bool
twiddleCacheEnabled()
{
    Registry &r = registry();
    MutexLock lock(r.mutex);
    resolveEnv(r);
    return r.enabled;
}

void
clearTwiddleCache()
{
    Registry &r = registry();
    MutexLock lock(r.mutex);
    for (auto &slot : r.slots)
        slot.reset();
}

} // namespace unizk
