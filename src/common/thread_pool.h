/**
 * @file
 * Process-wide thread pool and a deterministic parallel-for helper.
 *
 * The paper's CPU baselines are multi-threaded provers (Tables 1/3/5
 * report an 80-thread Xeon); this pool is what routes our prover hot
 * paths -- per-polynomial NTT/LDE, Merkle leaf and interior hashing,
 * quotient-domain constraint evaluation, and chunked batch inversion --
 * onto all available cores.
 *
 * Determinism guarantee: parallelFor() splits [begin, end) into
 * contiguous chunks whose boundaries are a pure function of the range,
 * the grain, and the pool size. Callers only use it for loops whose
 * chunks write disjoint outputs (or compute values that are exact
 * regardless of chunking, like batch inversion), so proofs and
 * challenger transcripts are bitwise identical for any thread count.
 * Reductions with order-dependent rounding are never run through the
 * pool.
 *
 * The pool is lazily created on first use. Thread count resolution
 * order: setGlobalThreadCount() (the `--threads` CLI flag), the
 * UNIZK_THREADS environment variable, then
 * std::thread::hardware_concurrency().
 */

#ifndef UNIZK_COMMON_THREAD_POOL_H
#define UNIZK_COMMON_THREAD_POOL_H

#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "common/sync.h"

namespace unizk {

/** Upper bound on configurable thread counts (env var or CLI). */
constexpr unsigned kMaxThreads = 4096;

/**
 * A fixed set of worker threads executing chunked loop bodies. One
 * instance (the global pool) is shared by every prover; standalone
 * instances exist only in tests.
 *
 * Concurrent submitters share the pool: each parallelFor() call is one
 * *region* (its body, range, chunk size and chunk cursor), and several
 * regions may be active at once. Workers drain the oldest region
 * first; a submitting thread only ever claims chunks of its own region
 * and then waits for the ones workers took, so no service lane idles
 * behind another lane's region and a lane can always finish its region
 * alone. Chunk boundaries are fixed per region before any chunk runs,
 * so interleaving regions changes only which thread runs a chunk,
 * never what it computes (preserving the determinism guarantee above).
 * Workers run each chunk under the submitter's obs trace id.
 */
class ThreadPool
{
  public:
    /** Spawn @p threads - 1 workers (the caller is the last "thread"). */
    explicit ThreadPool(unsigned threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of threads a parallel region may use (>= 1). */
    unsigned threadCount() const { return thread_count_; }

    /** Join all workers and respawn with a new count. The pool must be
     *  quiescent: no parallelFor() may be running on any thread. */
    void resize(unsigned threads);

    /**
     * Execute fn(chunk_begin, chunk_end) over contiguous chunks covering
     * [begin, end). Chunks hold at least @p grain indices (the last may
     * be short); with one thread, a single chunk, or when called from
     * inside a pool worker, the loop runs inline on the calling thread.
     * Blocks until every chunk has completed. Safe to call from several
     * threads at once.
     */
    void parallelFor(size_t begin, size_t end, size_t grain,
                     const std::function<void(size_t, size_t)> &fn);

  private:
    struct Region;

    void workerLoop();
    /** Remove @p region from the list of regions with unclaimed chunks. */
    void unlink(Region *region) UNIZK_REQUIRES(mutex_);

    std::vector<std::thread> workers_;
    // Written only by the constructor and resize() (which requires the
    // pool to be quiescent); read lock-free by threadCount() and
    // parallelFor's chunk math. Not annotated: the quiescence contract,
    // not a mutex, is what makes reads safe.
    unsigned thread_count_ = 1;

    Mutex mutex_;
    CondVar work_ready_;
    // FIFO of regions that still have unclaimed chunks; each Region
    // lives on its submitter's stack for the duration of parallelFor().
    Region *head_ UNIZK_GUARDED_BY(mutex_) = nullptr;
    // Regions whose submitter has not yet returned (linked or not).
    size_t active_regions_ UNIZK_GUARDED_BY(mutex_) = 0;
    bool shutting_down_ UNIZK_GUARDED_BY(mutex_) = false;
};

/** The process-wide pool (created on first use). */
ThreadPool &globalThreadPool();

/**
 * Set the global pool's thread count (0 = auto: UNIZK_THREADS env var,
 * else hardware concurrency). Resizes the pool if it already exists.
 */
void setGlobalThreadCount(unsigned threads);

/** Thread count the global pool uses (without forcing creation). */
unsigned globalThreadCount();

/** parallelFor on the global pool. */
inline void
parallelFor(size_t begin, size_t end, size_t grain,
            const std::function<void(size_t, size_t)> &fn)
{
    globalThreadPool().parallelFor(begin, end, grain, fn);
}

} // namespace unizk

#endif // UNIZK_COMMON_THREAD_POOL_H
