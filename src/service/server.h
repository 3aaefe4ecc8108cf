/**
 * @file
 * The unizkd proving service: a long-running daemon accepting proof
 * requests over a unix-domain socket.
 *
 * Architecture (DESIGN.md section 8):
 *
 *   accept loop ──> connection threads ──> bounded job queue ──> lanes
 *        │                │  (one per client; frame I/O,   │  (prover
 *        │                │   decode, admission control)   │   lanes on
 *        │                └── write response <── future ───┘   the global
 *        │                                                     ThreadPool)
 *        └── WakePipe interrupts every poll() for shutdown
 *
 * Each connection is closed-loop: the connection thread reads one
 * frame, validates and enqueues it (or rejects with a typed error when
 * the queue is full / draining), waits for the lane's result, writes
 * the response, then reads the next frame. Prover lanes run requests
 * through runRequest (protocol.h), the same function unizk_load --check
 * proves its references with, against the service's KeyCache of
 * prepared circuits (key_cache.h). Their parallelFor regions run
 * concurrently on the shared global pool with schedule-free chunk
 * boundaries, so proofs remain byte-identical to the one-shot
 * unizk_cli path.
 *
 * Shutdown (SIGINT/SIGTERM via requestStop, or a protocol Shutdown
 * frame) drains: stop accepting, close the queue (admitted jobs still
 * run), join lanes, answer every in-flight request, then join
 * connection threads and unlink the socket.
 */

#ifndef UNIZK_SERVICE_SERVER_H
#define UNIZK_SERVICE_SERVER_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/sync.h"
#include "obs/stats_export.h"
#include "service/job_queue.h"
#include "service/key_cache.h"
#include "service/protocol.h"
#include "service/socket_io.h"

namespace unizk {
namespace service {

struct ServiceConfig
{
    std::string socketPath;

    /** Admission-control bound; tryPush beyond this rejects QueueFull.
     *  0 is legal and rejects every request (used by tests). */
    size_t queueCapacity = 16;

    /** Prover lanes consuming the queue. Lanes share the global
     *  ThreadPool: their parallel regions run side by side, and each
     *  lane's serial phases overlap the other lanes' regions. */
    unsigned proverLanes = 2;

    /** Cap on per-request RunStats retained for the stats export. */
    size_t maxStoredRuns = 1024;

    /**
     * Observer for every stats-window rotation the service performs
     * (periodic exporter ticks *and* GetStats requests both go through
     * statsWindow(), which is the single process-wide rotation stream).
     * unizkd uses this to append each window to the --stats-interval
     * JSONL log, so logged sequence numbers stay contiguous even while
     * unizk_top is polling. Called with the rotation lock *not* held;
     * may run on a connection thread, so keep it fast. Empty = no-op.
     */
    std::function<void(const obs::StatsSnapshot &)> windowSink;
};

/** Monotonic counters describing one service lifetime. */
struct ServiceCounters
{
    uint64_t connectionsAccepted = 0;
    uint64_t requestsCompleted = 0;
    uint64_t rejectedQueueFull = 0;
    uint64_t rejectedBadRequest = 0;
    uint64_t rejectedShutdown = 0;
    uint64_t malformedFrames = 0;
    uint64_t disconnects = 0; ///< clients gone mid-request or mid-frame
    uint64_t acceptErrors = 0; ///< failed accept() calls (e.g. EMFILE)
};

/**
 * Backoff (milliseconds) before retrying accept() after it failed with
 * @p error, given @p consecutive_failures so far. EINTR and
 * ECONNABORTED retry immediately (the triggering condition is already
 * consumed); resource exhaustion (EMFILE/ENFILE/ENOBUFS/ENOMEM) and
 * unexpected errors back off exponentially up to a 1-second cap --
 * under fd exhaustion the listener stays readable and accept() fails
 * instantly, so an unthrottled loop spins a core at 100% while logging
 * nothing. Pure function, unit-tested directly.
 */
int acceptRetryDelayMs(int error, unsigned consecutive_failures);

class ProofService
{
  public:
    explicit ProofService(ServiceConfig cfg);
    ~ProofService();

    ProofService(const ProofService &) = delete;
    ProofService &operator=(const ProofService &) = delete;

    /** Bind the socket and launch accept loop + prover lanes. */
    bool start();

    /** Ask for a graceful drain; returns immediately. Safe to call
     *  from any thread (not from a signal handler -- handlers should
     *  sigwait / self-pipe and call this from a normal thread). */
    void requestStop();

    /** True once requestStop was called (or a Shutdown frame arrived). */
    bool stopRequested() const;

    /** Block until a stop is requested (daemon main loop). */
    void waitForStopRequest();

    /** Like waitForStopRequest, but give up after @p seconds. Returns
     *  true iff a stop was requested (the periodic stats exporter uses
     *  the false branch as its tick). */
    bool waitForStopRequestFor(double seconds);

    /** Drain and join everything; idempotent. start() may not be
     *  called again afterwards. */
    void stop();

    /** Counter snapshot (exact once stopped). */
    ServiceCounters counters() const;

    /** Per-request run stats collected so far (capped, FIFO). */
    std::vector<obs::RunStats> runStats() const;

    /**
     * Rotate the obs stats window (obs::snapshotDelta) and return it
     * together with live service gauges (queue/lane occupancy, span
     * drops). Serves Tag::GetStats and the periodic exporter; every
     * rotation is reported to config_.windowSink, so a JSONL window log
     * sees the full rotation stream and its delta sums still reconcile
     * exactly against the cumulative totals.
     */
    StatsResponse statsWindow();

    const ServiceConfig &config() const { return config_; }

  private:
    struct Job;
    struct Connection;

    void acceptLoop();
    void connectionLoop(Connection &conn);
    void proverLane(unsigned lane_id);

    /** Handle one decoded request; returns false to drop the client. */
    bool handleRequest(Connection &conn,
                       const std::vector<uint8_t> &payload);

    ServiceConfig config_;
    Fd listen_fd_;
    WakePipe wake_;
    std::atomic<bool> stop_requested_{false};
    std::atomic<bool> stopped_{false};

    // Guards no data: stop_requested_ stays an atomic (read lock-free
    // on every accept/connection iteration); the mutex exists to order
    // the flag flip with stop_cv_ waits so wakeups cannot be lost.
    // unizk-lint: disable-next-line=unguarded-mutex-member
    Mutex stop_mutex_;
    CondVar stop_cv_;

    std::unique_ptr<BoundedQueue<std::shared_ptr<Job>>> queue_;
    std::thread accept_thread_;
    std::vector<std::thread> lanes_;

    /** Prepared circuits shared by every lane, filled on demand. */
    KeyCache key_cache_;

    /** Lanes currently running a request (gauge for GetStats). */
    std::atomic<uint64_t> lanes_busy_{0};

    Mutex connections_mutex_;
    std::vector<std::unique_ptr<Connection>> connections_
        UNIZK_GUARDED_BY(connections_mutex_);

    mutable Mutex stats_mutex_;
    ServiceCounters counters_ UNIZK_GUARDED_BY(stats_mutex_);
    std::vector<obs::RunStats> run_stats_
        UNIZK_GUARDED_BY(stats_mutex_);
};

} // namespace service
} // namespace unizk

#endif // UNIZK_SERVICE_SERVER_H
