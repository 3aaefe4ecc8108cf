/**
 * @file
 * The prover lanes' cache of prepared circuits (DESIGN.md §6.6).
 *
 * Building a circuit and, for Plonky2, running plonkSetup depend only
 * on the resolved request shape, so a repeat shape can prove against
 * the PreparedApp of an earlier request. Proof bytes cannot change:
 * provePreparedApp sees the same circuit, witnesses, proving key and
 * FriConfig either way, and takes them by const reference.
 *
 * The cache is single-flight (the first requester of a cold shape
 * prepares it; concurrent requesters of that shape wait for it and
 * count as hits) and bounded by bytes: entries beyond the budget are
 * evicted least-recently-used first, and an entry larger than the
 * whole budget serves its own request without being kept.
 */

#ifndef UNIZK_SERVICE_KEY_CACHE_H
#define UNIZK_SERVICE_KEY_CACHE_H

#include <compare>
#include <cstdint>
#include <list>
#include <map>
#include <memory>

#include "common/sync.h"
#include "service/protocol.h"
#include "unizk/pipeline.h"

namespace unizk {
namespace service {

/**
 * What a prepared circuit depends on: the request after requestRows /
 * requestReps resolution, never the raw wire fields, so rows = 0 and
 * rows = <default> share an entry. reps is 0 for Starky, which
 * ignores it. fast selects the FriConfig.
 */
struct ShapeKey
{
    WireProtocol protocol = WireProtocol::Plonky2;
    AppId app = AppId::Factorial;
    size_t rows = 0;
    size_t reps = 0;
    bool fast = true;

    auto operator<=>(const ShapeKey &) const = default;
};

ShapeKey shapeKeyOf(const ProveRequest &req);

/** Default byte budget of a KeyCache: far above the small service
 *  mixes (tens of KiB to a few MiB per entry), far below one 2^20-row
 *  Plonky2 entry. */
constexpr size_t kKeyCacheBudgetBytes = size_t{64} << 20;

struct KeyCacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    size_t entries = 0;       ///< retained (ready) entries
    size_t residentBytes = 0; ///< sum of their estimatedBytes()
};

class KeyCache
{
  public:
    explicit KeyCache(size_t budget_bytes = kKeyCacheBudgetBytes)
        : budget_bytes_(budget_bytes)
    {
    }

    KeyCache(const KeyCache &) = delete;
    KeyCache &operator=(const KeyCache &) = delete;

    /**
     * The prepared circuit of @p req's shape: a cached entry (a hit),
     * or one prepared now on this thread (a miss). Also exported as
     * the service.key_cache_{hits,misses,evictions} obs counters.
     */
    std::shared_ptr<const PreparedApp> get(const ProveRequest &req);

    KeyCacheStats stats() const;

  private:
    struct Entry
    {
        /** Null while the first requester is still preparing it. */
        std::shared_ptr<const PreparedApp> app;
        size_t bytes = 0;
        std::list<ShapeKey>::iterator lru; ///< valid iff app
    };

    /** Evict least-recently-used entries until the budget holds;
     *  returns how many. */
    uint64_t evictOverBudget() UNIZK_REQUIRES(mutex_);

    const size_t budget_bytes_;

    mutable Mutex mutex_;
    CondVar ready_;
    std::map<ShapeKey, Entry> entries_ UNIZK_GUARDED_BY(mutex_);
    std::list<ShapeKey> lru_ UNIZK_GUARDED_BY(mutex_); ///< front = MRU
    KeyCacheStats stats_ UNIZK_GUARDED_BY(mutex_);
};

} // namespace service
} // namespace unizk

#endif // UNIZK_SERVICE_KEY_CACHE_H
