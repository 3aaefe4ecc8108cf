#include "common/thread_pool.h"

#include <algorithm>

#include "common/bits.h"
#include "common/env.h"
#include "common/logging.h"
#include "obs/obs.h"

namespace unizk {

namespace {

/** True on threads currently executing a pool chunk: nested parallel
 *  regions run inline instead of deadlocking on the shared pool. */
thread_local bool in_pool_worker = false;

unsigned
autoThreadCount()
{
    // Strict parse (trailing junk / sign / range rejected with a warn):
    // "8abc" or "4294967297" used to silently become 8 resp. a wrapped
    // unsigned. kMaxThreads matches resize()'s practical ceiling; any
    // rejected value falls back to hardware concurrency.
    if (const auto n = envUint("UNIZK_THREADS", 1, kMaxThreads))
        return static_cast<unsigned>(*n);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

// Requested count for the global pool; 0 = resolve via autoThreadCount.
Mutex global_mutex;
unsigned requested_threads UNIZK_GUARDED_BY(global_mutex) = 0;
ThreadPool *global_pool UNIZK_GUARDED_BY(global_mutex) = nullptr;

} // namespace

/**
 * One parallelFor() call: lives on the submitter's stack until every
 * one of its chunks has completed. The fields above the cursor are
 * fixed before the region is published; the rest are guarded by the
 * pool's mutex_ (an annotation cannot name another object's member).
 */
struct ThreadPool::Region
{
    Region(const std::function<void(size_t, size_t)> &fn_, size_t begin_,
           size_t end_, size_t chunk_size_, size_t num_chunks_)
        : fn(fn_), begin(begin_), end(end_), chunk_size(chunk_size_),
          num_chunks(num_chunks_), trace_id(obs::currentTraceId())
    {}

    const std::function<void(size_t, size_t)> &fn;
    const size_t begin;
    const size_t end;
    const size_t chunk_size;
    const size_t num_chunks;
    /** Submitter's obs trace id, installed around worker chunks. */
    const uint64_t trace_id;

    size_t next_chunk = 0;
    /** Chunks claimed by workers and not yet finished. */
    size_t in_flight = 0;
    Region *next = nullptr;
    /** Signalled (under mutex_) when in_flight drops to zero. */
    CondVar done;

    void
    run(size_t chunk) const
    {
        const size_t lo = begin + chunk * chunk_size;
        const size_t hi = std::min(lo + chunk_size, end);
        in_pool_worker = true;
        fn(lo, hi);
        in_pool_worker = false;
    }
};

ThreadPool::ThreadPool(unsigned threads)
{
    unizk_assert(threads >= 1, "thread pool needs at least one thread");
    thread_count_ = threads;
    workers_.reserve(threads - 1);
    for (unsigned t = 0; t + 1 < threads; ++t)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        MutexLock lock(mutex_);
        shutting_down_ = true;
    }
    work_ready_.notifyAll();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::resize(unsigned threads)
{
    unizk_assert(threads >= 1, "thread pool needs at least one thread");
    if (threads == thread_count_)
        return;
    {
        MutexLock lock(mutex_);
        unizk_assert(active_regions_ == 0,
                     "cannot resize the pool while a region is active");
        shutting_down_ = true;
    }
    work_ready_.notifyAll();
    for (auto &w : workers_)
        w.join();
    workers_.clear();
    {
        MutexLock lock(mutex_);
        shutting_down_ = false;
    }
    thread_count_ = threads;
    workers_.reserve(threads - 1);
    for (unsigned t = 0; t + 1 < threads; ++t)
        workers_.emplace_back([this] { workerLoop(); });
}

void
ThreadPool::unlink(Region *region)
{
    Region *prev = nullptr;
    for (Region *r = head_; r != region; r = r->next)
        prev = r;
    if (prev == nullptr)
        head_ = region->next;
    else
        prev->next = region->next;
    region->next = nullptr;
}

void
ThreadPool::workerLoop()
{
    // Balanced manual lock()/unlock() instead of a scoped lock: the
    // loop drops the mutex around each chunk body. The thread-safety
    // analysis checks that the mutex is held at every guarded-member
    // access and released on the one exit path.
    mutex_.lock();
    for (;;) {
        while (!shutting_down_ && head_ == nullptr)
            work_ready_.wait(mutex_);
        if (shutting_down_) {
            mutex_.unlock();
            return;
        }
        // Oldest region first. Chunk *boundaries* are fixed by the
        // submitter; only the assignment of chunks to threads is
        // dynamic, and chunk outputs are disjoint, so results do not
        // depend on this schedule.
        Region *region = head_;
        const size_t chunk = region->next_chunk++;
        if (region->next_chunk == region->num_chunks)
            unlink(region);
        ++region->in_flight;
        mutex_.unlock();
        {
            const obs::ScopedTraceId trace(region->trace_id);
            region->run(chunk);
        }
        mutex_.lock();
        // Notify while holding mutex_: once the submitter sees zero it
        // returns and the region (condvar included) goes out of scope.
        if (--region->in_flight == 0)
            region->done.notifyOne();
    }
}

void
ThreadPool::parallelFor(size_t begin, size_t end, size_t grain,
                        const std::function<void(size_t, size_t)> &fn)
{
    if (begin >= end)
        return;
    const size_t n = end - begin;
    if (grain == 0)
        grain = 1;

    // Chunk boundaries depend only on (n, grain, threadCount) -- never
    // on scheduling -- keeping the decomposition reproducible. Up to
    // 4 chunks per thread smooths out imbalanced bodies.
    size_t num_chunks = std::min<size_t>(ceilDiv(n, grain),
                                         size_t{4} * thread_count_);
    const size_t chunk_size = ceilDiv(n, num_chunks);
    num_chunks = ceilDiv(n, chunk_size);

    if (thread_count_ == 1 || num_chunks == 1 || in_pool_worker) {
        fn(begin, end);
        return;
    }

    Region region(fn, begin, end, chunk_size, num_chunks);
    mutex_.lock();
    if (head_ == nullptr) {
        head_ = &region;
    } else {
        Region *last = head_;
        while (last->next != nullptr)
            last = last->next;
        last->next = &region;
    }
    ++active_regions_;
    mutex_.unlock();
    work_ready_.notifyAll();

    // The submitting thread works too, but only on its own region:
    // other submitters' regions are theirs (and the workers') to run,
    // so this call never waits on work it did not ask for.
    mutex_.lock();
    while (region.next_chunk < region.num_chunks) {
        const size_t chunk = region.next_chunk++;
        if (region.next_chunk == region.num_chunks)
            unlink(&region);
        mutex_.unlock();
        region.run(chunk);
        mutex_.lock();
    }
    while (region.in_flight != 0)
        region.done.wait(mutex_);
    --active_regions_;
    mutex_.unlock();
}

ThreadPool &
globalThreadPool()
{
    MutexLock lock(global_mutex);
    if (global_pool == nullptr) {
        const unsigned n =
            requested_threads ? requested_threads : autoThreadCount();
        // Leaked deliberately: workers must outlive every static
        // destructor that might still prove something.
        global_pool = new ThreadPool(n);
    }
    return *global_pool;
}

void
setGlobalThreadCount(unsigned threads)
{
    MutexLock lock(global_mutex);
    requested_threads = threads;
    const unsigned n = threads ? threads : autoThreadCount();
    if (global_pool == nullptr)
        global_pool = new ThreadPool(n);
    else
        global_pool->resize(n);
}

unsigned
globalThreadCount()
{
    {
        MutexLock lock(global_mutex);
        if (global_pool != nullptr)
            return global_pool->threadCount();
        if (requested_threads)
            return requested_threads;
    }
    return autoThreadCount();
}

} // namespace unizk
