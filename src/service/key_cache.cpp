#include "service/key_cache.h"

#include "obs/obs.h"

namespace unizk {
namespace service {

namespace {

PreparedApp
prepareRequest(const ProveRequest &req)
{
    const FriConfig cfg = requestFriConfig(req);
    return req.protocol == WireProtocol::Plonky2
               ? preparePlonky2App(req.app, requestRows(req),
                                   requestReps(req), cfg)
               : prepareStarkyApp(req.app, requestRows(req), cfg);
}

} // namespace

ShapeKey
shapeKeyOf(const ProveRequest &req)
{
    ShapeKey key;
    key.protocol = req.protocol;
    key.app = req.app;
    key.rows = requestRows(req);
    key.reps =
        req.protocol == WireProtocol::Plonky2 ? requestReps(req) : 0;
    key.fast = req.fast;
    return key;
}

std::shared_ptr<const PreparedApp>
KeyCache::get(const ProveRequest &req)
{
    const ShapeKey key = shapeKeyOf(req);
    std::shared_ptr<const PreparedApp> hit;
    {
        MutexLock lock(mutex_);
        auto it = entries_.find(key);
        // Single flight: a pending entry (null app) is being prepared
        // by its first requester. Its waiters re-look it up once it is
        // ready -- or gone, if it was too large to keep, in which case
        // one of them prepares it next.
        while (it != entries_.end() && !it->second.app) {
            ready_.wait(mutex_);
            it = entries_.find(key);
        }
        if (it != entries_.end()) {
            lru_.splice(lru_.begin(), lru_, it->second.lru);
            ++stats_.hits;
            hit = it->second.app;
        } else {
            entries_.emplace(key, Entry{});
            ++stats_.misses;
        }
    }
    if (hit) {
        UNIZK_COUNTER_ADD("service.key_cache_hits", 1);
        return hit;
    }
    UNIZK_COUNTER_ADD("service.key_cache_misses", 1);

    std::shared_ptr<const PreparedApp> app;
    try {
        app = std::make_shared<const PreparedApp>(prepareRequest(req));
    } catch (...) {
        MutexLock lock(mutex_);
        entries_.erase(key);
        ready_.notifyAll();
        throw;
    }
    const size_t bytes = app->estimatedBytes();
    uint64_t evicted = 0;
    {
        MutexLock lock(mutex_);
        const auto it = entries_.find(key);
        if (bytes > budget_bytes_) {
            entries_.erase(it);
        } else {
            it->second.app = app;
            it->second.bytes = bytes;
            lru_.push_front(key);
            it->second.lru = lru_.begin();
            stats_.residentBytes += bytes;
            evicted = evictOverBudget();
        }
    }
    ready_.notifyAll();
    if (evicted > 0)
        UNIZK_COUNTER_ADD("service.key_cache_evictions", evicted);
    return app;
}

uint64_t
KeyCache::evictOverBudget()
{
    uint64_t evicted = 0;
    // The entry just inserted is at the front and fits on its own, so
    // this stops before reaching it.
    while (stats_.residentBytes > budget_bytes_) {
        const auto it = entries_.find(lru_.back());
        stats_.residentBytes -= it->second.bytes;
        entries_.erase(it);
        lru_.pop_back();
        ++evicted;
    }
    stats_.evictions += evicted;
    return evicted;
}

KeyCacheStats
KeyCache::stats() const
{
    MutexLock lock(mutex_);
    KeyCacheStats out = stats_;
    out.entries = lru_.size();
    return out;
}

} // namespace service
} // namespace unizk
