#include "service/server.h"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "common/logging.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "obs/obs.h"
#include "unizk/pipeline.h"

namespace unizk {
namespace service {

namespace {

/**
 * Clients that stall mid-frame (or vanish without a FIN while we are
 * blocked reading) would otherwise pin their connection thread
 * forever; a receive timeout turns that into a bounded-latency drop,
 * which also bounds how long a graceful drain can take.
 */
void
setRecvTimeout(int fd)
{
    timeval tv{};
    tv.tv_sec = 5;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

} // namespace

int
acceptRetryDelayMs(int error, unsigned consecutive_failures)
{
    switch (error) {
      case EINTR:
      case ECONNABORTED: // the pending connection died; queue advanced
#if defined(EAGAIN)
      case EAGAIN: // raced another accepter; nothing left to take
#endif
#if defined(EWOULDBLOCK) && EWOULDBLOCK != EAGAIN
      case EWOULDBLOCK:
#endif
        return 0;
      default:
        break;
    }
    // EMFILE/ENFILE/ENOBUFS/ENOMEM and anything unexpected: exponential
    // backoff from 10 ms, capped at 1 s. The cap also bounds the warn()
    // rate during a sustained fd-exhaustion episode.
    constexpr int kBaseMs = 10;
    constexpr int kMaxMs = 1000;
    const unsigned shift =
        consecutive_failures < 7 ? consecutive_failures : 7;
    const int delay = kBaseMs << shift;
    return delay < kMaxMs ? delay : kMaxMs;
}

struct ProofService::Job
{
    ProveRequest request;
    size_t admissionDepth = 0; ///< written under the queue lock by tryPush
    Stopwatch admitted; ///< starts the latency clock at admission
    /** The lane delivers the fully *encoded* response payload, not a
     *  ProveResponse: serialization is part of the lane's timing
     *  decomposition (serializeNs), and handing back bytes means the
     *  connection thread cannot accidentally re-serialize outside the
     *  measured interval. */
    std::promise<std::vector<uint8_t>> promise;
};

struct ProofService::Connection
{
    Fd fd;
    std::thread thread;
    std::atomic<bool> done{false};
};

ProofService::ProofService(ServiceConfig cfg) : config_(std::move(cfg))
{
    queue_ = std::make_unique<BoundedQueue<std::shared_ptr<Job>>>(
        config_.queueCapacity);
}

ProofService::~ProofService()
{
    stop();
}

bool
ProofService::start()
{
    listen_fd_ = listenUnix(config_.socketPath);
    if (!listen_fd_.valid()) {
        warn("unizkd: cannot listen on '", config_.socketPath, "'");
        return false;
    }
    const unsigned lanes = config_.proverLanes >= 1
                               ? config_.proverLanes
                               : 1;
    for (unsigned i = 0; i < lanes; ++i)
        lanes_.emplace_back([this, i] { proverLane(i); });
    accept_thread_ = std::thread([this] { acceptLoop(); });
    inform("unizkd: serving on ", config_.socketPath, " (queue ",
           config_.queueCapacity, ", lanes ", lanes, ", pool ",
           globalThreadCount(), " threads)");
    return true;
}

void
ProofService::requestStop()
{
    {
        MutexLock lock(stop_mutex_);
        stop_requested_.store(true, std::memory_order_release);
    }
    wake_.signal();
    stop_cv_.notifyAll();
}

bool
ProofService::stopRequested() const
{
    return stop_requested_.load(std::memory_order_acquire);
}

void
ProofService::waitForStopRequest()
{
    MutexLock lock(stop_mutex_);
    while (!stopRequested())
        stop_cv_.wait(stop_mutex_);
}

bool
ProofService::waitForStopRequestFor(double seconds)
{
    const Stopwatch started;
    MutexLock lock(stop_mutex_);
    while (!stopRequested()) {
        const double remaining = seconds - started.elapsedSeconds();
        if (remaining <= 0)
            return false;
        const int64_t ms =
            static_cast<int64_t>(remaining * 1000.0) + 1;
        stop_cv_.waitForMs(stop_mutex_, ms);
    }
    return true;
}

void
ProofService::stop()
{
    if (stopped_.exchange(true))
        return;
    requestStop();

    // 1. No new connections: join the accept loop, drop the listener.
    if (accept_thread_.joinable())
        accept_thread_.join();
    listen_fd_.reset();
    ::unlink(config_.socketPath.c_str());

    // 2. No new admissions; lanes drain every job already admitted, so
    //    each pending future is fulfilled before the lanes exit.
    queue_->close();
    for (auto &lane : lanes_)
        lane.join();
    lanes_.clear();

    // 3. Connection threads finish their in-flight response (its future
    //    is ready by now), observe the stop, and exit.
    std::vector<std::unique_ptr<Connection>> conns;
    {
        MutexLock lock(connections_mutex_);
        conns.swap(connections_);
    }
    for (auto &conn : conns) {
        if (conn->thread.joinable())
            conn->thread.join();
    }
    inform("unizkd: drained and stopped");
}

ServiceCounters
ProofService::counters() const
{
    MutexLock lock(stats_mutex_);
    return counters_;
}

std::vector<obs::RunStats>
ProofService::runStats() const
{
    MutexLock lock(stats_mutex_);
    return run_stats_;
}

StatsResponse
ProofService::statsWindow()
{
    const obs::StatsSnapshot snap = obs::snapshotDelta();

    StatsResponse stats;
    stats.sequence = snap.sequence;
    stats.windowStartNs = snap.windowStartNs;
    stats.windowEndNs = snap.windowEndNs;
    stats.queueDepth = queue_->depth();
    stats.queueCapacity = queue_->capacity();
    stats.lanes = lanes_.size();
    stats.lanesBusy = lanes_busy_.load(std::memory_order_relaxed);
    stats.spansDropped = snap.spans.dropped;
    stats.counters.reserve(snap.counters.size());
    for (const auto &entry : snap.counters) {
        StatsCounterWindow c;
        c.name = entry.first;
        c.delta = entry.second.delta;
        c.cumulative = entry.second.cumulative;
        stats.counters.push_back(std::move(c));
    }
    stats.histograms.reserve(snap.histograms.size());
    for (const auto &entry : snap.histograms) {
        StatsHistogramWindow h;
        h.name = entry.first;
        h.delta = entry.second.delta;
        h.cumulative = entry.second.cumulative;
        stats.histograms.push_back(std::move(h));
    }

    if (config_.windowSink)
        config_.windowSink(snap);
    return stats;
}

void
ProofService::acceptLoop()
{
    unsigned accept_failures = 0;
    while (!stopRequested()) {
        if (!waitReadable(listen_fd_.get(), wake_.readFd()))
            break; // woken for shutdown
        Fd client(::accept(listen_fd_.get(), nullptr, nullptr));
        if (!client.valid()) {
            // Under fd exhaustion (EMFILE/ENFILE) the listener stays
            // readable and accept() fails instantly; an immediate
            // retry would busy-spin this thread at 100% CPU while
            // silently swallowing errno. Count, log, and back off
            // (bounded), staying responsive to shutdown by sleeping
            // on the wake pipe.
            const int err = errno;
            {
                MutexLock lock(stats_mutex_);
                counters_.acceptErrors++;
            }
            UNIZK_COUNTER_ADD("service.accept_errors", 1);
            if (err != EINTR) {
                warn("unizkd: accept failed: ", std::strerror(err),
                     " (errno ", err, ")");
            }
            const int delay =
                acceptRetryDelayMs(err, accept_failures);
            if (accept_failures < ~0u)
                accept_failures++;
            if (delay > 0)
                waitReadableMs(wake_.readFd(), delay);
            continue;
        }
        accept_failures = 0;
        setRecvTimeout(client.get());
        auto conn = std::make_unique<Connection>();
        conn->fd = std::move(client);
        Connection *raw = conn.get();
        conn->thread =
            std::thread([this, raw] { connectionLoop(*raw); });
        {
            MutexLock lock(stats_mutex_);
            counters_.connectionsAccepted++;
        }
        {
            MutexLock lock(connections_mutex_);
            // Reap connections that already finished so a long-lived
            // daemon does not accumulate joined-out thread objects.
            for (auto it = connections_.begin();
                 it != connections_.end();) {
                if ((*it)->done.load(std::memory_order_acquire)) {
                    (*it)->thread.join();
                    it = connections_.erase(it);
                } else {
                    ++it;
                }
            }
            connections_.push_back(std::move(conn));
        }
        UNIZK_COUNTER_ADD("service.connections_accepted", 1);
    }
}

void
ProofService::connectionLoop(Connection &conn)
{
    const int fd = conn.fd.get();
    std::vector<uint8_t> payload;
    for (;;) {
        if (stopRequested())
            break;
        if (!waitReadable(fd, wake_.readFd()))
            break; // shutdown wake while idle
        const FrameResult res =
            readFrame(fd, kMaxRequestFrameBytes, payload);
        if (res == FrameResult::Eof)
            break;
        if (res == FrameResult::TooLarge) {
            // The oversized length claim was rejected before any
            // allocation; tell the client why, then drop it (the rest
            // of its stream is unframed garbage to us now).
            {
                MutexLock lock(stats_mutex_);
                counters_.malformedFrames++;
            }
            writeFrame(fd, encodeError(ErrorCode::BadFrame,
                                       "frame exceeds size bound"));
            break;
        }
        if (res != FrameResult::Ok) {
            MutexLock lock(stats_mutex_);
            counters_.disconnects++;
            break;
        }
        if (!handleRequest(conn, payload))
            break;
    }
    conn.fd.reset();
    conn.done.store(true, std::memory_order_release);
}

bool
ProofService::handleRequest(Connection &conn,
                            const std::vector<uint8_t> &payload)
{
    const int fd = conn.fd.get();
    const auto frame = decodeRequest(payload);
    if (!frame) {
        // Unknown tag or out-of-range fields: typed rejection, but the
        // framing is still intact, so keep the connection.
        {
            MutexLock lock(stats_mutex_);
            counters_.rejectedBadRequest++;
        }
        UNIZK_COUNTER_ADD("service.rejected_bad_request", 1);
        return writeFrame(fd, encodeError(ErrorCode::BadRequest,
                                          "malformed request"));
    }

    switch (frame->tag) {
    case Tag::Ping:
        return writeFrame(fd, encodePong());

    case Tag::GetStats:
        // Rotation is safe mid-traffic (recording threads never block
        // on it); the gauges are sampled immediately after the window
        // boundary, so they describe the start of the *next* window.
        return writeFrame(fd, encodeStatsResponse(statsWindow()));

    case Tag::Shutdown:
        // Flip the stop flag before acking so a client that sees the
        // ack can rely on stopRequested() being observable.
        inform("unizkd: shutdown requested over protocol");
        requestStop();
        writeFrame(fd, encodeShutdownAck());
        return false;

    case Tag::Prove: {
        if (stopRequested()) {
            MutexLock lock(stats_mutex_);
            counters_.rejectedShutdown++;
            return writeFrame(fd,
                              encodeError(ErrorCode::ShuttingDown,
                                          "service is draining"));
        }
        auto job = std::make_shared<Job>();
        job->request = frame->prove;
        std::future<std::vector<uint8_t>> result =
            job->promise.get_future();
        // admissionDepth is filled in under the queue lock, before a
        // lane can see the job -- writing it after tryPush would race
        // with proverLane reading it.
        switch (queue_->tryPush(job, &job->admissionDepth)) {
        case PushResult::Full: {
            // Bump the counter under the lock, then drop it before the
            // (potentially slow) socket write.
            ReleasableMutexLock lock(stats_mutex_);
            counters_.rejectedQueueFull++;
            lock.release();
            UNIZK_COUNTER_ADD("service.rejected_queue_full", 1);
            return writeFrame(fd,
                              encodeError(ErrorCode::QueueFull,
                                          "job queue at capacity"));
        }
        case PushResult::Closed: {
            MutexLock lock(stats_mutex_);
            counters_.rejectedShutdown++;
            return writeFrame(fd,
                              encodeError(ErrorCode::ShuttingDown,
                                          "service is draining"));
        }
        case PushResult::Ok:
            break;
        }
        UNIZK_OBS_HISTO("service.queue_depth", job->admissionDepth);

        // Closed-loop: wait for the lane, answer, then read the next
        // frame. The future is always fulfilled -- lanes drain the
        // queue even during shutdown. The lane hands back the encoded
        // frame (see Job::promise), so this thread only writes bytes.
        const std::vector<uint8_t> response = result.get();
        if (!writeFrame(fd, response)) {
            // Client vanished mid-request; the proof is discarded.
            MutexLock lock(stats_mutex_);
            counters_.disconnects++;
            return false;
        }
        {
            MutexLock lock(stats_mutex_);
            counters_.requestsCompleted++;
        }
        return true;
    }

    default:
        return writeFrame(fd, encodeError(ErrorCode::BadRequest,
                                          "unexpected response tag"));
    }
}

void
ProofService::proverLane(unsigned lane_id)
{
    while (auto popped = queue_->pop()) {
        const std::shared_ptr<Job> job = *popped;
        const ProveRequest &req = job->request;

        // The latency clock started at admission; everything before
        // this point is queueing.
        const uint64_t queued_ns = static_cast<uint64_t>(
            job->admitted.elapsedSeconds() * 1e9);

        lanes_busy_.fetch_add(1, std::memory_order_relaxed);
        const Stopwatch busy;

        std::vector<uint8_t> payload;
        // Declared before the span so the request span (and every
        // nested pipeline span on this thread) carries the trace id.
        // Pool workers run this lane's chunks under the same id: each
        // parallelFor region carries its submitter's trace id.
        const obs::ScopedTraceId trace(req.traceId);
        {
            UNIZK_SPAN("service/request");

            const Stopwatch proving;
            const AppRunResult result = runRequest(req, key_cache_);
            const uint64_t prove_ns = static_cast<uint64_t>(
                proving.elapsedSeconds() * 1e9);

            ProveResponse response;
            response.verified = result.verified;
            response.queueDepth = job->admissionDepth;
            response.proof = result.proofBlob;
            response.hasServerTiming = req.traceId != 0;
            response.traceId = req.traceId;
            response.laneId = lane_id;
            response.queuedNs = queued_ns;
            response.proveNs = prove_ns;

            // Serialize the proof section first, then sample the total
            // latency: queuedNs + proveNs + serializeNs <= latencyNs
            // holds by construction because the three are disjoint
            // subintervals of [admission, latency sample].
            const Stopwatch serializing;
            const std::vector<uint8_t> proof_section =
                encodeProofSection(response.proof);
            response.serializeNs = static_cast<uint64_t>(
                serializing.elapsedSeconds() * 1e9);
            response.latencyNs = static_cast<uint64_t>(
                job->admitted.elapsedSeconds() * 1e9);

            UNIZK_OBS_HISTO("service.request_latency_ns",
                            response.latencyNs);
            UNIZK_OBS_HISTO("service.queued_ns", queued_ns);
            UNIZK_OBS_HISTO("service.prove_ns", prove_ns);
            UNIZK_COUNTER_ADD("service.requests_completed", 1);
            {
                MutexLock lock(stats_mutex_);
                if (run_stats_.size() < config_.maxStoredRuns) {
                    run_stats_.push_back(toRunStats(
                        result,
                        req.protocol == WireProtocol::Plonky2
                            ? "plonky2"
                            : "starky",
                        globalThreadCount()));
                }
            }
            payload = finishProveResponse(response, proof_section);
        }

        UNIZK_COUNTER_ADD(
            "service.lane_busy_ns",
            static_cast<uint64_t>(busy.elapsedSeconds() * 1e9));
        lanes_busy_.fetch_sub(1, std::memory_order_relaxed);

        // Answer last: the request span and counters above are recorded
        // before the client can see the response, so a client that
        // resets obs right after it (obs::resetForMeasurement between
        // load runs) cannot race this lane's span buffer.
        job->promise.set_value(std::move(payload));
    }
}

} // namespace service
} // namespace unizk
