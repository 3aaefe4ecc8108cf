/**
 * @file
 * Tests for the unizkd proving service: wire-protocol encode/decode
 * totality (unknown tags, truncated and oversized frames, trailing
 * bytes), frame I/O against real sockets, admission control, graceful
 * shutdown, the prepared-circuit cache, and byte-identity of served
 * proofs (cache misses and hits) vs the direct pipeline.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/stats.h"
#include "common/thread_pool.h"
#include "obs/obs.h"
#include "serialize/bytes.h"
#include "service/client.h"
#include "service/key_cache.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/socket_io.h"
#include "unizk/pipeline.h"

namespace unizk {
namespace service {
namespace {

/** Per-process socket path so parallel ctest runs cannot collide. */
std::string
testSocketPath(const char *tag)
{
    return "/tmp/unizk_test_" + std::to_string(::getpid()) + "_" +
           tag + ".sock";
}

ProveRequest
smallRequest()
{
    ProveRequest req;
    req.protocol = WireProtocol::Plonky2;
    req.app = AppId::Factorial;
    req.rows = 64;
    req.reps = 1;
    req.fast = true;
    req.verify = true;
    return req;
}

// ---------------------------------------------------------------------
// Protocol encode/decode round trips.

TEST(Protocol, ProveRequestRoundTrip)
{
    ProveRequest req;
    req.protocol = WireProtocol::Starky;
    req.app = AppId::Sha256;
    req.rows = 1024;
    req.reps = 0;
    req.fast = false;
    req.verify = true;
    const auto frame = decodeRequest(encodeProveRequest(req));
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->tag, Tag::Prove);
    EXPECT_EQ(frame->prove.protocol, WireProtocol::Starky);
    EXPECT_EQ(frame->prove.app, AppId::Sha256);
    EXPECT_EQ(frame->prove.rows, 1024u);
    EXPECT_EQ(frame->prove.reps, 0u);
    EXPECT_FALSE(frame->prove.fast);
    EXPECT_TRUE(frame->prove.verify);
}

TEST(Protocol, ControlFramesRoundTrip)
{
    auto ping = decodeRequest(encodePing());
    ASSERT_TRUE(ping.has_value());
    EXPECT_EQ(ping->tag, Tag::Ping);

    auto shutdown = decodeRequest(encodeShutdown());
    ASSERT_TRUE(shutdown.has_value());
    EXPECT_EQ(shutdown->tag, Tag::Shutdown);

    auto pong = decodeResponse(encodePong());
    ASSERT_TRUE(pong.has_value());
    EXPECT_EQ(pong->tag, Tag::Pong);

    auto ack = decodeResponse(encodeShutdownAck());
    ASSERT_TRUE(ack.has_value());
    EXPECT_EQ(ack->tag, Tag::ShutdownAck);
}

TEST(Protocol, ProveResponseRoundTrip)
{
    ProveResponse resp;
    resp.verified = true;
    resp.latencyNs = 123456789;
    resp.queueDepth = 3;
    resp.proof = {1, 2, 3, 4, 5};
    const auto frame = decodeResponse(encodeProveResponse(resp));
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->tag, Tag::ProveOk);
    EXPECT_TRUE(frame->prove.verified);
    EXPECT_EQ(frame->prove.latencyNs, 123456789u);
    EXPECT_EQ(frame->prove.queueDepth, 3u);
    EXPECT_EQ(frame->prove.proof, resp.proof);
}

TEST(Protocol, ErrorRoundTrip)
{
    const auto frame = decodeResponse(
        encodeError(ErrorCode::QueueFull, "job queue at capacity"));
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->tag, Tag::Error);
    EXPECT_EQ(frame->error.code, ErrorCode::QueueFull);
    EXPECT_EQ(frame->error.message, "job queue at capacity");
    EXPECT_STREQ(errorCodeName(frame->error.code), "queue-full");
}

TEST(Protocol, RejectsUnknownTags)
{
    ByteWriter w;
    w.putU64(999);
    EXPECT_FALSE(decodeRequest(w.take()).has_value());
    ByteWriter w2;
    w2.putU64(999);
    EXPECT_FALSE(decodeResponse(w2.take()).has_value());
    // A response tag is not a valid request and vice versa.
    EXPECT_FALSE(decodeRequest(encodePong()).has_value());
    EXPECT_FALSE(decodeResponse(encodePing()).has_value());
}

TEST(Protocol, RejectsTruncatedAndTrailingBytes)
{
    const auto full = encodeProveRequest(smallRequest());
    for (size_t cut = 1; cut < full.size(); ++cut) {
        const std::vector<uint8_t> prefix(full.begin(),
                                          full.begin() +
                                              static_cast<long>(cut));
        EXPECT_FALSE(decodeRequest(prefix).has_value())
            << "cut=" << cut;
    }
    auto padded = full;
    padded.push_back(0);
    EXPECT_FALSE(decodeRequest(padded).has_value());
    EXPECT_FALSE(decodeRequest({}).has_value());
}

TEST(Protocol, RejectsOutOfRangeFields)
{
    auto req = smallRequest();
    req.rows = kMaxRequestRows + 1;
    EXPECT_FALSE(decodeRequest(encodeProveRequest(req)).has_value());

    req = smallRequest();
    req.reps = kMaxRequestReps + 1;
    EXPECT_FALSE(decodeRequest(encodeProveRequest(req)).has_value());

    // Starky request for an app without a Starky implementation.
    req = smallRequest();
    req.protocol = WireProtocol::Starky;
    req.app = AppId::Ecdsa;
    EXPECT_FALSE(decodeRequest(encodeProveRequest(req)).has_value());

    // Out-of-range protocol and app enums, encoded by hand.
    ByteWriter w;
    w.putU64(static_cast<uint64_t>(Tag::Prove));
    w.putU64(7); // no such protocol
    w.putU64(0);
    w.putU64(64);
    w.putU64(1);
    w.putU64(3);
    EXPECT_FALSE(decodeRequest(w.take()).has_value());
}

TEST(Protocol, ErrorMessageLengthClaimIsBounded)
{
    // An error frame whose message *claims* to be huge but carries no
    // bytes must be rejected by the canRead bound, not trusted.
    ByteWriter w;
    w.putU64(static_cast<uint64_t>(Tag::Error));
    w.putU64(static_cast<uint64_t>(ErrorCode::BadFrame));
    w.putU64(uint64_t{1} << 40); // length claim with no payload
    EXPECT_FALSE(decodeResponse(w.take()).has_value());
}

// ---------------------------------------------------------------------
// Versioned prove frames and the stats window frame.

TEST(ProtocolV2, TracedProveRequestRoundTrip)
{
    ProveRequest req = smallRequest();
    req.traceId = 77;
    const auto bytes = encodeProveRequest(req);
    // The V2 tag goes on the wire, but decode normalizes so server
    // dispatch stays version-blind.
    ByteReader peek(bytes);
    EXPECT_EQ(peek.getU64(), static_cast<uint64_t>(Tag::ProveV2));
    const auto frame = decodeRequest(bytes);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->tag, Tag::Prove);
    EXPECT_EQ(frame->prove.traceId, 77u);
    EXPECT_EQ(frame->prove.rows, 64u);
}

TEST(ProtocolV2, UntracedProveRequestKeepsFrozenV1Layout)
{
    // Byte-layout pin: a traceId of 0 must produce exactly the v1
    // frame, so a v2 client keeps working against a v1 server.
    const ProveRequest req = smallRequest();
    ByteWriter w;
    w.putU64(static_cast<uint64_t>(Tag::Prove));
    w.putU64(static_cast<uint64_t>(req.protocol));
    w.putU64(static_cast<uint64_t>(req.app));
    w.putU64(req.rows);
    w.putU64(req.reps);
    w.putU64(3); // fast | verify
    EXPECT_EQ(encodeProveRequest(req), w.take());
}

TEST(ProtocolV2, ProveV2WithZeroTraceIdRejected)
{
    // traceId != 0 <=> V2 frame; a hand-rolled V2 frame claiming id 0
    // would make the two encodings ambiguous and is rejected.
    ByteWriter w;
    w.putU64(static_cast<uint64_t>(Tag::ProveV2));
    w.putU64(0); // plonky2
    w.putU64(0); // factorial
    w.putU64(64);
    w.putU64(1);
    w.putU64(3);
    w.putU64(0); // traceId 0: invalid in a V2 frame
    EXPECT_FALSE(decodeRequest(w.take()).has_value());
}

TEST(ProtocolV2, TracedProveResponseRoundTrip)
{
    ProveResponse resp;
    resp.verified = true;
    resp.latencyNs = 5000;
    resp.queueDepth = 2;
    resp.proof = {1, 2, 3};
    resp.hasServerTiming = true;
    resp.traceId = 42;
    resp.laneId = 1;
    resp.queuedNs = 1000;
    resp.proveNs = 3000;
    resp.serializeNs = 500;

    const auto bytes = encodeProveResponse(resp);
    ByteReader peek(bytes);
    EXPECT_EQ(peek.getU64(), static_cast<uint64_t>(Tag::ProveOkV2));

    const auto frame = decodeResponse(bytes);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->tag, Tag::ProveOk);
    ASSERT_TRUE(frame->prove.hasServerTiming);
    EXPECT_EQ(frame->prove.traceId, 42u);
    EXPECT_EQ(frame->prove.laneId, 1u);
    EXPECT_EQ(frame->prove.queuedNs, 1000u);
    EXPECT_EQ(frame->prove.proveNs, 3000u);
    EXPECT_EQ(frame->prove.serializeNs, 500u);
    EXPECT_EQ(frame->prove.latencyNs, 5000u);
    EXPECT_EQ(frame->prove.proof, resp.proof);
}

TEST(ProtocolV2, UntracedProveResponseKeepsFrozenV1Layout)
{
    ProveResponse resp;
    resp.verified = true;
    resp.latencyNs = 999;
    resp.queueDepth = 1;
    resp.proof = {7, 8};

    ByteWriter w;
    w.putU64(static_cast<uint64_t>(Tag::ProveOk));
    w.putU64(1);
    w.putU64(999);
    w.putU64(1);
    w.putU64(2); // proof length prefix
    w.putRaw(resp.proof.data(), resp.proof.size());
    EXPECT_EQ(encodeProveResponse(resp), w.take());

    const auto frame = decodeResponse(encodeProveResponse(resp));
    ASSERT_TRUE(frame.has_value());
    EXPECT_FALSE(frame->prove.hasServerTiming);
}

TEST(ProtocolV2, ProveOkV2WithZeroTraceIdRejected)
{
    ByteWriter w;
    w.putU64(static_cast<uint64_t>(Tag::ProveOkV2));
    w.putU64(1);   // verified
    w.putU64(100); // latencyNs
    w.putU64(0);   // queueDepth
    w.putU64(0);   // traceId 0: invalid in a V2 frame
    w.putU64(0);   // laneId
    w.putU64(10);
    w.putU64(20);
    w.putU64(30);
    w.putU64(0); // empty proof
    EXPECT_FALSE(decodeResponse(w.take()).has_value());
}

TEST(ProtocolV2, FinishProveResponseMatchesSingleShotEncoder)
{
    // The two-step path (lane times encodeProofSection, then stamps
    // the header) must be byte-identical to the one-shot encoder, for
    // both frame versions.
    ProveResponse resp;
    resp.verified = true;
    resp.latencyNs = 1234;
    resp.queueDepth = 4;
    resp.proof = {9, 9, 9, 9};
    EXPECT_EQ(finishProveResponse(resp, encodeProofSection(resp.proof)),
              encodeProveResponse(resp));

    resp.hasServerTiming = true;
    resp.traceId = 6;
    resp.laneId = 0;
    resp.queuedNs = 100;
    resp.proveNs = 1000;
    resp.serializeNs = 50;
    EXPECT_EQ(finishProveResponse(resp, encodeProofSection(resp.proof)),
              encodeProveResponse(resp));
}

StatsResponse
sampleStats()
{
    StatsResponse stats;
    stats.sequence = 3;
    stats.windowStartNs = 1000;
    stats.windowEndNs = 2000;
    stats.queueDepth = 1;
    stats.queueCapacity = 16;
    stats.lanes = 2;
    stats.lanesBusy = 1;
    stats.spansDropped = 0;
    StatsCounterWindow c;
    c.name = "service.requests_completed";
    c.delta = 5;
    c.cumulative = 40;
    stats.counters.push_back(c);
    StatsHistogramWindow h;
    h.name = "service.request_latency_ns";
    h.delta.count = 5;
    h.delta.sum = 5000;
    h.delta.min = 800;
    h.delta.max = 1500;
    h.delta.buckets[10] = 4;
    h.delta.buckets[11] = 1;
    h.cumulative = h.delta;
    h.cumulative.count = 40;
    stats.histograms.push_back(h);
    return stats;
}

TEST(ProtocolV2, StatsResponseRoundTrip)
{
    const StatsResponse stats = sampleStats();
    const auto frame = decodeResponse(encodeStatsResponse(stats));
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->tag, Tag::StatsOk);
    const StatsResponse &got = frame->stats;
    EXPECT_EQ(got.sequence, 3u);
    EXPECT_EQ(got.windowStartNs, 1000u);
    EXPECT_EQ(got.windowEndNs, 2000u);
    EXPECT_EQ(got.queueDepth, 1u);
    EXPECT_EQ(got.queueCapacity, 16u);
    EXPECT_EQ(got.lanes, 2u);
    EXPECT_EQ(got.lanesBusy, 1u);
    EXPECT_EQ(got.spansDropped, 0u);
    ASSERT_EQ(got.counters.size(), 1u);
    EXPECT_EQ(got.counters[0].name, "service.requests_completed");
    EXPECT_EQ(got.counters[0].delta, 5u);
    EXPECT_EQ(got.counters[0].cumulative, 40u);
    ASSERT_EQ(got.histograms.size(), 1u);
    EXPECT_EQ(got.histograms[0].name, "service.request_latency_ns");
    EXPECT_EQ(got.histograms[0].delta.count, 5u);
    EXPECT_EQ(got.histograms[0].delta.min, 800u);
    EXPECT_EQ(got.histograms[0].delta.max, 1500u);
    EXPECT_EQ(got.histograms[0].delta.buckets[10], 4u);
    EXPECT_EQ(got.histograms[0].cumulative.count, 40u);
}

TEST(ProtocolV2, V2FramesRejectTruncationAndTrailingBytes)
{
    ProveRequest req = smallRequest();
    req.traceId = 5;
    std::vector<std::vector<uint8_t>> frames;
    frames.push_back(encodeProveRequest(req));
    frames.push_back(encodeStatsResponse(sampleStats()));
    ProveResponse resp;
    resp.hasServerTiming = true;
    resp.traceId = 5;
    resp.proof = {1};
    frames.push_back(encodeProveResponse(resp));

    for (size_t f = 0; f < frames.size(); ++f) {
        const auto &full = frames[f];
        const bool is_request = f == 0;
        for (size_t cut = 1; cut < full.size(); ++cut) {
            const std::vector<uint8_t> prefix(
                full.begin(), full.begin() + static_cast<long>(cut));
            if (is_request) {
                EXPECT_FALSE(decodeRequest(prefix).has_value())
                    << "frame " << f << " cut=" << cut;
            } else {
                EXPECT_FALSE(decodeResponse(prefix).has_value())
                    << "frame " << f << " cut=" << cut;
            }
        }
        auto padded = full;
        padded.push_back(0);
        if (is_request) {
            EXPECT_FALSE(decodeRequest(padded).has_value());
        } else {
            EXPECT_FALSE(decodeResponse(padded).has_value());
        }
    }
}

TEST(ProtocolV2, StatsEntryCountClaimIsBounded)
{
    // A StatsOk frame claiming 2^40 counters with no payload must be
    // rejected from the claim alone, never allocated.
    ByteWriter w;
    w.putU64(static_cast<uint64_t>(Tag::StatsOk));
    for (int i = 0; i < 8; ++i)
        w.putU64(0); // sequence .. spansDropped
    w.putU64(uint64_t{1} << 40); // counter-count claim
    EXPECT_FALSE(decodeResponse(w.take()).has_value());
}

// ---------------------------------------------------------------------
// Frame I/O on real sockets.

class FramePair : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        int fds[2];
        ASSERT_EQ(
            ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        a_ = Fd(fds[0]);
        b_ = Fd(fds[1]);
    }

    Fd a_, b_;
};

TEST_F(FramePair, RoundTrip)
{
    const std::vector<uint8_t> payload = {9, 8, 7};
    ASSERT_TRUE(writeFrame(a_.get(), payload));
    std::vector<uint8_t> got;
    EXPECT_EQ(readFrame(b_.get(), 1024, got), FrameResult::Ok);
    EXPECT_EQ(got, payload);
}

TEST_F(FramePair, EmptyFrame)
{
    ASSERT_TRUE(writeFrame(a_.get(), {}));
    std::vector<uint8_t> got = {1, 2, 3};
    EXPECT_EQ(readFrame(b_.get(), 1024, got), FrameResult::Ok);
    EXPECT_TRUE(got.empty());
}

TEST_F(FramePair, EofBeforeHeader)
{
    a_.reset();
    std::vector<uint8_t> got;
    EXPECT_EQ(readFrame(b_.get(), 1024, got), FrameResult::Eof);
}

TEST_F(FramePair, TruncatedHeader)
{
    const uint8_t partial[3] = {42, 0, 0};
    ASSERT_EQ(::send(a_.get(), partial, sizeof(partial), 0), 3);
    a_.reset();
    std::vector<uint8_t> got;
    EXPECT_EQ(readFrame(b_.get(), 1024, got),
              FrameResult::Truncated);
}

TEST_F(FramePair, TruncatedPayload)
{
    // Header promises 100 bytes, only 5 arrive before the close.
    uint8_t header[8] = {100, 0, 0, 0, 0, 0, 0, 0};
    ASSERT_EQ(::send(a_.get(), header, sizeof(header), 0), 8);
    const uint8_t part[5] = {1, 2, 3, 4, 5};
    ASSERT_EQ(::send(a_.get(), part, sizeof(part), 0), 5);
    a_.reset();
    std::vector<uint8_t> got;
    EXPECT_EQ(readFrame(b_.get(), 1024, got),
              FrameResult::Truncated);
}

TEST_F(FramePair, OversizedClaimRejectedBeforeAllocation)
{
    // A header claiming 2^60 bytes must be rejected from the length
    // field alone -- resize(2^60) would throw bad_alloc long before
    // any payload could arrive.
    uint8_t header[8] = {};
    const uint64_t claim = uint64_t{1} << 60;
    for (size_t i = 0; i < 8; ++i)
        header[i] = static_cast<uint8_t>(claim >> (8 * i));
    ASSERT_EQ(::send(a_.get(), header, sizeof(header), 0), 8);
    std::vector<uint8_t> got;
    EXPECT_EQ(readFrame(b_.get(), kMaxRequestFrameBytes, got),
              FrameResult::TooLarge);
    EXPECT_TRUE(got.empty());
}

void
ignoreSigusr1(int)
{
}

TEST_F(FramePair, SignalStormDuringBlockedReadRetriesIteratively)
{
    // Regression: readFrame used to *recurse* once per EINTR on the
    // header peek, so a signal storm against a blocked reader grew the
    // stack without bound. The retry is now an iterative loop; this
    // pins that a reader surviving a storm of interruptions still
    // delivers the frame intact.
    //
    // SA_RESTART deliberately off: recv must actually return EINTR
    // instead of the kernel restarting it.
    struct sigaction sa = {};
    sa.sa_handler = ignoreSigusr1;
    sa.sa_flags = 0;
    sigemptyset(&sa.sa_mask);
    struct sigaction old = {};
    ASSERT_EQ(::sigaction(SIGUSR1, &sa, &old), 0);

    std::atomic<bool> reader_started{false};
    FrameResult result = FrameResult::IoError;
    std::vector<uint8_t> got;
    std::thread reader([&] {
        reader_started.store(true, std::memory_order_release);
        result = readFrame(b_.get(), 1024, got);
    });
    while (!reader_started.load(std::memory_order_acquire))
        std::this_thread::yield();

    // Storm the blocked reader. Each delivered signal interrupts the
    // recv; the old code would have pushed one stack frame per hit.
    for (int i = 0; i < 500; ++i) {
        ::pthread_kill(reader.native_handle(), SIGUSR1);
        if (i % 50 == 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    const std::vector<uint8_t> payload = {1, 2, 3, 4};
    ASSERT_TRUE(writeFrame(a_.get(), payload));
    // Keep interrupting while the payload drains, too.
    for (int i = 0; i < 100; ++i)
        ::pthread_kill(reader.native_handle(), SIGUSR1);
    reader.join();
    ASSERT_EQ(::sigaction(SIGUSR1, &old, nullptr), 0);

    EXPECT_EQ(result, FrameResult::Ok);
    EXPECT_EQ(got, payload);
}

// ---------------------------------------------------------------------
// Accept-failure backoff policy (regression: EMFILE busy-spin).

TEST(AcceptRetryDelay, TransientErrorsRetryImmediately)
{
    // The triggering condition is consumed (signal delivered,
    // connection aborted, another accepter won the race): no backoff.
    EXPECT_EQ(acceptRetryDelayMs(EINTR, 0), 0);
    EXPECT_EQ(acceptRetryDelayMs(EINTR, 100), 0);
    EXPECT_EQ(acceptRetryDelayMs(ECONNABORTED, 3), 0);
    EXPECT_EQ(acceptRetryDelayMs(EAGAIN, 0), 0);
}

TEST(AcceptRetryDelay, ResourceExhaustionBacksOffExponentially)
{
    // Under EMFILE the listener stays readable and accept() fails
    // instantly; the loop used to spin a core at 100%. The policy must
    // always impose a positive, growing, bounded delay.
    int prev = 0;
    for (unsigned failures = 0; failures < 20; ++failures) {
        const int d = acceptRetryDelayMs(EMFILE, failures);
        EXPECT_GT(d, 0) << "failures=" << failures;
        EXPECT_GE(d, prev) << "failures=" << failures;
        EXPECT_LE(d, 1000) << "failures=" << failures;
        prev = d;
    }
    // The cap must actually engage (no unbounded doubling).
    EXPECT_EQ(acceptRetryDelayMs(EMFILE, 1000u), 1000);
    EXPECT_EQ(acceptRetryDelayMs(ENFILE, 1000u), 1000);
    EXPECT_EQ(acceptRetryDelayMs(ENOBUFS, 1000u), 1000);
}

TEST(AcceptRetryDelay, UnexpectedErrorsAreThrottledToo)
{
    // A persistently broken listener (EBADF, EINVAL, ...) must not
    // spin either; it logs at a bounded rate instead.
    EXPECT_GT(acceptRetryDelayMs(EBADF, 0), 0);
    EXPECT_EQ(acceptRetryDelayMs(EINVAL, 1000u), 1000);
}

TEST(AcceptRetryDelay, BackoffSleepWakesOnStopSignal)
{
    // The backoff sleep polls the wake pipe so a draining daemon never
    // sits out a full backoff interval.
    WakePipe wake;
    wake.signal();
    const Stopwatch clock;
    EXPECT_TRUE(waitReadableMs(wake.readFd(), 10000));
    EXPECT_LT(clock.elapsedSeconds(), 5.0);
}

TEST(AcceptRetryDelay, BackoffSleepTimesOutWithoutSignal)
{
    WakePipe wake;
    EXPECT_FALSE(waitReadableMs(wake.readFd(), 10));
}

// ---------------------------------------------------------------------
// Bounded queue semantics.

TEST(BoundedQueue, AdmissionAndDrain)
{
    BoundedQueue<int> q(2);
    size_t depth = 99;
    EXPECT_EQ(q.tryPush(1, &depth), PushResult::Ok);
    EXPECT_EQ(depth, 0u);
    EXPECT_EQ(q.tryPush(2, &depth), PushResult::Ok);
    EXPECT_EQ(depth, 1u);
    EXPECT_EQ(q.tryPush(3), PushResult::Full);
    q.close();
    EXPECT_EQ(q.tryPush(4), PushResult::Closed);
    // Jobs admitted before close still drain, in order.
    EXPECT_EQ(q.pop(), 1);
    EXPECT_EQ(q.pop(), 2);
    EXPECT_FALSE(q.pop().has_value());
}

TEST(BoundedQueue, ZeroCapacityRejectsEverything)
{
    BoundedQueue<int> q(0);
    EXPECT_EQ(q.tryPush(1), PushResult::Full);
}

/**
 * Races many producers and consumers against a mid-stream close().
 * Pins the drain-then-exit contract under contention: every item
 * admitted (tryPush == Ok) is popped exactly once, consumers see
 * nullopt only after close + drain, and nothing is admitted after
 * close. Runs in the CI TSAN leg, where it also exercises the
 * capability-annotated Mutex/CondVar wrappers under real contention.
 */
TEST(BoundedQueue, ConcurrentCloseRace)
{
    constexpr int kProducers = 4;
    constexpr int kConsumers = 4;
    // Attempt budget per producer. Producers run until they observe
    // Closed, so this only bounds the pathological case where close()
    // never lands; it is far more attempts than any machine gets
    // through in the 20ms race window.
    constexpr int kMaxPerProducer = 1 << 20;

    BoundedQueue<int> q(16);
    std::atomic<bool> start{false};

    // admitted[v] set by the producer when tryPush(v) returned Ok;
    // popped[v] incremented by whichever consumer received v.
    std::vector<std::atomic<uint8_t>> admitted(kProducers *
                                               kMaxPerProducer);
    std::vector<std::atomic<uint8_t>> popped(kProducers *
                                             kMaxPerProducer);
    std::atomic<uint64_t> rejected_closed{0};

    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            while (!start.load(std::memory_order_acquire)) {
            }
            for (int i = 0; i < kMaxPerProducer; ++i) {
                const int v = p * kMaxPerProducer + i;
                switch (q.tryPush(v)) {
                case PushResult::Ok:
                    admitted[static_cast<size_t>(v)].store(
                        1, std::memory_order_relaxed);
                    break;
                case PushResult::Full:
                    break; // backpressure; drop and move on
                case PushResult::Closed:
                    // The door slammed mid-stream; every producer
                    // must end here, not by exhausting its budget.
                    rejected_closed.fetch_add(
                        1, std::memory_order_relaxed);
                    return;
                }
            }
        });
    }

    std::vector<std::thread> consumers;
    for (int c = 0; c < kConsumers; ++c) {
        consumers.emplace_back([&] {
            while (!start.load(std::memory_order_acquire)) {
            }
            while (auto item = q.pop())
                popped[static_cast<size_t>(*item)].fetch_add(
                    1, std::memory_order_relaxed);
            // After pop() returns nullopt the queue is closed and
            // drained; it must stay that way.
            EXPECT_FALSE(q.pop().has_value());
        });
    }

    start.store(true, std::memory_order_release);
    // Let the race develop, then slam the door while both sides are
    // mid-flight.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.close();

    for (auto &t : producers)
        t.join();
    for (auto &t : consumers)
        t.join();

    EXPECT_EQ(q.tryPush(-1), PushResult::Closed);
    EXPECT_FALSE(q.pop().has_value());

    uint64_t admitted_total = 0;
    for (size_t v = 0; v < admitted.size(); ++v) {
        const uint8_t in = admitted[v].load(std::memory_order_relaxed);
        const uint8_t out = popped[v].load(std::memory_order_relaxed);
        admitted_total += in;
        EXPECT_EQ(in, out) << "item " << v
                           << (in != 0u ? " admitted but popped "
                                        : " never admitted but popped ")
                           << static_cast<unsigned>(out) << " times";
    }
    // The close raced real traffic: something got through before it,
    // and every producer was still pushing when it landed (each exits
    // only on observing Closed).
    EXPECT_GT(admitted_total, 0u);
    EXPECT_EQ(rejected_closed.load(),
              static_cast<uint64_t>(kProducers));
}

// ---------------------------------------------------------------------
// Prepared-circuit cache.

/** Run @p body at each pool size the determinism tests use. */
template <typename Body>
void
atEachPoolSize(Body body)
{
    const unsigned saved = globalThreadCount();
    for (const unsigned threads : {1u, 2u, 3u, 8u}) {
        SCOPED_TRACE(threads);
        setGlobalThreadCount(threads);
        body();
    }
    setGlobalThreadCount(saved);
}

TEST(KeyCache, ConcurrentColdRequestsPrepareOnce)
{
    atEachPoolSize([] {
        KeyCache cache;
        const ProveRequest req = smallRequest();
        constexpr size_t kRequesters = 8;
        std::atomic<bool> go{false};
        std::vector<std::shared_ptr<const PreparedApp>> got(kRequesters);
        std::vector<std::thread> threads;
        for (size_t t = 0; t < kRequesters; ++t) {
            threads.emplace_back([&, t] {
                while (!go.load(std::memory_order_acquire))
                    std::this_thread::yield();
                got[t] = cache.get(req);
            });
        }
        go.store(true, std::memory_order_release);
        for (auto &t : threads)
            t.join();

        const KeyCacheStats st = cache.stats();
        EXPECT_EQ(st.misses, 1u);
        EXPECT_EQ(st.hits, kRequesters - 1);
        EXPECT_EQ(st.entries, 1u);
        ASSERT_NE(got[0], nullptr);
        for (const auto &app : got)
            EXPECT_EQ(app.get(), got[0].get());
    });
}

TEST(KeyCache, KeysOnTheResolvedShape)
{
    atEachPoolSize([] {
        KeyCache cache;

        ProveRequest implicit_rows = smallRequest();
        implicit_rows.app = AppId::Fibonacci;
        implicit_rows.rows = 0;
        ProveRequest default_rows = implicit_rows;
        default_rows.rows = defaultParams(AppId::Fibonacci).rows;
        EXPECT_EQ(cache.get(implicit_rows), cache.get(default_rows));

        // Starky ignores reps.
        ProveRequest stark = smallRequest();
        stark.protocol = WireProtocol::Starky;
        stark.reps = 0;
        ProveRequest stark_reps = stark;
        stark_reps.reps = 5;
        EXPECT_EQ(cache.get(stark), cache.get(stark_reps));

        // fast selects another FriConfig, so another entry.
        ProveRequest fast = smallRequest();
        ProveRequest full = fast;
        full.fast = false;
        EXPECT_NE(cache.get(fast), cache.get(full));

        const KeyCacheStats st = cache.stats();
        EXPECT_EQ(st.misses, 4u);
        EXPECT_EQ(st.hits, 2u);
        EXPECT_EQ(st.entries, 4u);
        EXPECT_EQ(st.evictions, 0u);
    });
}

TEST(KeyCache, EvictsLeastRecentlyUsedAndReprovesIdentically)
{
    atEachPoolSize([] {
        ProveRequest a = smallRequest();
        a.reps = 2;
        ProveRequest b = a;
        b.fast = false;
        ProveRequest c = a;
        c.reps = 1;
        size_t bytes_a = 0, bytes_b = 0, bytes_c = 0;
        {
            KeyCache sizing;
            bytes_a = sizing.get(a)->estimatedBytes();
            bytes_b = sizing.get(b)->estimatedBytes();
            bytes_c = sizing.get(c)->estimatedBytes();
        }
        ASSERT_EQ(bytes_b, bytes_a);
        ASSERT_LT(bytes_c, bytes_a);

        // Room for a and b, not for all three.
        KeyCache cache(bytes_a + bytes_b);
        const std::vector<uint8_t> first = runRequest(a, cache).proofBlob;
        cache.get(b);
        cache.get(a); // a is now the most recently used
        cache.get(c); // evicts b, the least recently used
        KeyCacheStats st = cache.stats();
        EXPECT_EQ(st.evictions, 1u);
        EXPECT_EQ(st.entries, 2u);
        EXPECT_EQ(st.residentBytes, bytes_a + bytes_c);

        cache.get(b); // a miss again, evicting a
        const AppRunResult again = runRequest(a, cache); // and a misses
        st = cache.stats();
        EXPECT_EQ(st.misses, 5u);
        EXPECT_EQ(st.hits, 1u);
        EXPECT_EQ(st.evictions, 3u);
        EXPECT_TRUE(again.verified);
        EXPECT_EQ(again.proofBlob, first);
    });
}

TEST(KeyCache, OversizedEntriesServeTheirRequestUnkept)
{
    atEachPoolSize([] {
        KeyCache cache(1);
        const ProveRequest req = smallRequest();
        const AppRunResult first = runRequest(req, cache);
        const AppRunResult second = runRequest(req, cache);
        EXPECT_TRUE(first.verified);
        EXPECT_EQ(second.proofBlob, first.proofBlob);

        const KeyCacheStats st = cache.stats();
        EXPECT_EQ(st.misses, 2u);
        EXPECT_EQ(st.hits, 0u);
        EXPECT_EQ(st.entries, 0u);
        EXPECT_EQ(st.residentBytes, 0u);
        EXPECT_EQ(st.evictions, 0u);
    });
}

// ---------------------------------------------------------------------
// End-to-end service tests.

TEST(Service, PingAndUnknownTag)
{
    ServiceConfig cfg;
    cfg.socketPath = testSocketPath("ping");
    cfg.proverLanes = 1;
    ProofService svc(cfg);
    ASSERT_TRUE(svc.start());

    ServiceClient client(cfg.socketPath);
    ASSERT_TRUE(client.connected());
    auto pong = client.ping();
    ASSERT_TRUE(pong.has_value());
    EXPECT_EQ(pong->tag, Tag::Pong);

    // An unknown request tag draws a typed BadRequest, and the
    // connection stays usable.
    ByteWriter w;
    w.putU64(424242);
    ASSERT_TRUE(client.sendRaw(w.take()));
    auto err = client.readResponse();
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->tag, Tag::Error);
    EXPECT_EQ(err->error.code, ErrorCode::BadRequest);
    auto pong2 = client.ping();
    ASSERT_TRUE(pong2.has_value());
    EXPECT_EQ(pong2->tag, Tag::Pong);

    svc.stop();
    EXPECT_GE(svc.counters().rejectedBadRequest, 1u);
}

TEST(Service, OversizedFrameDrawsBadFrameAndDisconnect)
{
    ServiceConfig cfg;
    cfg.socketPath = testSocketPath("oversize");
    cfg.proverLanes = 1;
    ProofService svc(cfg);
    ASSERT_TRUE(svc.start());

    ServiceClient client(cfg.socketPath);
    ASSERT_TRUE(client.connected());
    // The server rejects from the header alone and may close before
    // the oversized payload is fully written, so the send itself is
    // allowed to fail -- the typed error frame must still arrive.
    std::vector<uint8_t> big(kMaxRequestFrameBytes + 1, 0);
    client.sendRaw(big);
    auto err = client.readResponse();
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->tag, Tag::Error);
    EXPECT_EQ(err->error.code, ErrorCode::BadFrame);

    svc.stop();
    EXPECT_GE(svc.counters().malformedFrames, 1u);
}

uint64_t
counterDelta(const std::map<std::string, uint64_t> &before,
             const std::map<std::string, uint64_t> &after,
             const std::string &name)
{
    const auto b = before.find(name);
    const auto a = after.find(name);
    return (a == after.end() ? 0 : a->second) -
           (b == before.end() ? 0 : b->second);
}

TEST(Service, ProofMatchesDirectPipeline)
{
    const ProveRequest plonk = smallRequest();
    ProveRequest stark = smallRequest();
    stark.protocol = WireProtocol::Starky;
    stark.app = AppId::Fibonacci;
    stark.reps = 0;
    const AppRunResult plonk_direct = runPlonky2App(
        plonk.app, requestRows(plonk), requestReps(plonk),
        requestFriConfig(plonk), HardwareConfig::paperDefault(), true);
    const AppRunResult stark_direct = runStarkyApp(
        stark.app, requestRows(stark), requestFriConfig(stark),
        HardwareConfig::paperDefault(), true);

    const bool obs_was_enabled = obs::enabled();
    obs::setEnabled(true);
    const auto before = obs::counterSnapshot();

    ServiceConfig cfg;
    cfg.socketPath = testSocketPath("prove");
    cfg.proverLanes = 1;
    ProofService svc(cfg);
    ASSERT_TRUE(svc.start());

    ServiceClient client(cfg.socketPath);
    ASSERT_TRUE(client.connected());
    // The Plonky2 shape twice (a cache miss, then a hit), then Starky.
    const std::pair<const ProveRequest *, const AppRunResult *> sends[] =
        {{&plonk, &plonk_direct},
         {&plonk, &plonk_direct},
         {&stark, &stark_direct}};
    for (const auto &[req, direct] : sends) {
        auto resp = client.prove(*req);
        ASSERT_TRUE(resp.has_value());
        ASSERT_EQ(resp->tag, Tag::ProveOk);
        EXPECT_TRUE(resp->prove.verified);
        EXPECT_EQ(resp->prove.proof, direct->proofBlob);
    }

    svc.stop();
    const auto after = obs::counterSnapshot();
    obs::setEnabled(obs_was_enabled);
    const ServiceCounters c = svc.counters();
    EXPECT_EQ(c.requestsCompleted, 3u);
    ASSERT_EQ(svc.runStats().size(), 3u);
    EXPECT_EQ(svc.runStats()[0].protocol, "plonky2");
    EXPECT_EQ(svc.runStats()[2].protocol, "starky");
    EXPECT_EQ(counterDelta(before, after, "service.key_cache_hits"), 1u);
    EXPECT_EQ(counterDelta(before, after, "service.key_cache_misses"),
              2u);
    EXPECT_EQ(counterDelta(before, after, "service.key_cache_evictions"),
              0u);
}

TEST(Service, ZeroCapacityQueueRejectsWithQueueFull)
{
    ServiceConfig cfg;
    cfg.socketPath = testSocketPath("full");
    cfg.queueCapacity = 0;
    cfg.proverLanes = 1;
    ProofService svc(cfg);
    ASSERT_TRUE(svc.start());

    ServiceClient client(cfg.socketPath);
    auto resp = client.prove(smallRequest());
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->tag, Tag::Error);
    EXPECT_EQ(resp->error.code, ErrorCode::QueueFull);

    svc.stop();
    EXPECT_GE(svc.counters().rejectedQueueFull, 1u);
}

TEST(Service, MidRequestDisconnectDoesNotWedgeTheServer)
{
    ServiceConfig cfg;
    cfg.socketPath = testSocketPath("disc");
    cfg.proverLanes = 1;
    ProofService svc(cfg);
    ASSERT_TRUE(svc.start());

    {
        ServiceClient client(cfg.socketPath);
        ASSERT_TRUE(client.connected());
        ASSERT_TRUE(client.sendRaw(encodeProveRequest(smallRequest())));
        client.disconnect(); // vanish while the proof is being built
    }

    // The server must still answer other clients afterwards.
    ServiceClient other(cfg.socketPath);
    auto resp = other.prove(smallRequest());
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->tag, Tag::ProveOk);

    svc.stop();
    EXPECT_GE(svc.counters().disconnects, 1u);
}

TEST(Service, ProtocolShutdownDrains)
{
    ServiceConfig cfg;
    cfg.socketPath = testSocketPath("shutdown");
    cfg.proverLanes = 1;
    ProofService svc(cfg);
    ASSERT_TRUE(svc.start());

    ServiceClient client(cfg.socketPath);
    auto ack = client.shutdownServer();
    ASSERT_TRUE(ack.has_value());
    EXPECT_EQ(ack->tag, Tag::ShutdownAck);
    EXPECT_TRUE(svc.stopRequested());
    svc.stop();

    // The socket is gone; new connections fail.
    ServiceClient late(cfg.socketPath);
    EXPECT_FALSE(late.connected());
}

TEST(Service, TracedProveEchoesDecompositionProofUnchanged)
{
    ServiceConfig cfg;
    cfg.socketPath = testSocketPath("traced");
    cfg.proverLanes = 1;
    ProofService svc(cfg);
    ASSERT_TRUE(svc.start());

    ServiceClient client(cfg.socketPath);
    ASSERT_TRUE(client.connected());

    // Untraced request: legacy response, no server timing.
    const auto plain = client.prove(smallRequest());
    ASSERT_TRUE(plain.has_value());
    ASSERT_EQ(plain->tag, Tag::ProveOk);
    EXPECT_FALSE(plain->prove.hasServerTiming);

    // Traced request: decomposition comes back, nested by
    // construction, and the proof bytes are unaffected by tracing.
    ProveRequest traced = smallRequest();
    traced.traceId = 42;
    const auto resp = client.prove(traced);
    ASSERT_TRUE(resp.has_value());
    ASSERT_EQ(resp->tag, Tag::ProveOk);
    const ProveResponse &p = resp->prove;
    ASSERT_TRUE(p.hasServerTiming);
    EXPECT_EQ(p.traceId, 42u);
    EXPECT_EQ(p.laneId, 0u);
    EXPECT_GT(p.proveNs, 0u);
    EXPECT_LE(p.queuedNs + p.proveNs + p.serializeNs, p.latencyNs);
    EXPECT_EQ(p.proof, plain->prove.proof);

    svc.stop();
    EXPECT_EQ(svc.counters().requestsCompleted, 2u);
}

TEST(Service, GetStatsServedWhileLaneIsMidRequest)
{
    std::atomic<uint64_t> sink_calls{0};
    ServiceConfig cfg;
    cfg.socketPath = testSocketPath("stats");
    cfg.queueCapacity = 8;
    cfg.proverLanes = 1;
    cfg.windowSink = [&sink_calls](const obs::StatsSnapshot &) {
        sink_calls.fetch_add(1, std::memory_order_relaxed);
    };
    ProofService svc(cfg);
    ASSERT_TRUE(svc.start());

    // Park a prove on the single lane, then poll stats from a second
    // connection while the first is still being served.
    ServiceClient prover(cfg.socketPath);
    ASSERT_TRUE(prover.connected());
    ProveRequest req = smallRequest();
    req.traceId = 7;
    ASSERT_TRUE(prover.sendRaw(encodeProveRequest(req)));

    ServiceClient poller(cfg.socketPath);
    ASSERT_TRUE(poller.connected());
    const auto first = poller.getStats();
    ASSERT_TRUE(first.has_value());
    ASSERT_EQ(first->tag, Tag::StatsOk);
    EXPECT_EQ(first->stats.lanes, 1u);
    EXPECT_EQ(first->stats.queueCapacity, 8u);
    EXPECT_LE(first->stats.lanesBusy, 1u);

    const auto second = poller.getStats();
    ASSERT_TRUE(second.has_value());
    ASSERT_EQ(second->tag, Tag::StatsOk);
    // One process-wide rotation stream: consecutive polls get
    // consecutive windows that chain exactly.
    EXPECT_GE(first->stats.sequence, 1u);
    EXPECT_EQ(second->stats.sequence, first->stats.sequence + 1);
    EXPECT_EQ(second->stats.windowStartNs, first->stats.windowEndNs);

    // The parked prove still completes with its decomposition intact.
    const auto resp = prover.readResponse();
    ASSERT_TRUE(resp.has_value());
    ASSERT_EQ(resp->tag, Tag::ProveOk);
    ASSERT_TRUE(resp->prove.hasServerTiming);
    EXPECT_EQ(resp->prove.traceId, 7u);

    // Every GetStats rotation went through the shared window sink (the
    // daemon's JSONL contiguity depends on this single path).
    EXPECT_EQ(sink_calls.load(), 2u);

    svc.stop();
}

TEST(Service, FourConcurrentClientsMixedWorkload)
{
    ProveRequest plonk = smallRequest();
    ProveRequest stark;
    stark.protocol = WireProtocol::Starky;
    stark.app = AppId::Fibonacci;
    stark.rows = 64;
    stark.reps = 0;

    const AppRunResult plonkDirect = runPlonky2App(
        plonk.app, requestRows(plonk), requestReps(plonk),
        requestFriConfig(plonk), HardwareConfig::paperDefault(), true);
    const AppRunResult starkDirect = runStarkyApp(
        stark.app, requestRows(stark), requestFriConfig(stark),
        HardwareConfig::paperDefault(), true);

    ServiceConfig cfg;
    cfg.socketPath = testSocketPath("concurrent");
    cfg.queueCapacity = 16;
    cfg.proverLanes = 2;
    ProofService svc(cfg);
    ASSERT_TRUE(svc.start());

    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < 4; ++c) {
        clients.emplace_back([&, c] {
            ServiceClient client(cfg.socketPath);
            for (int i = 0; i < 2; ++i) {
                const bool starky = (c + i) % 2 == 0;
                const auto resp =
                    client.prove(starky ? stark : plonk);
                if (!resp || resp->tag != Tag::ProveOk ||
                    !resp->prove.verified ||
                    resp->prove.proof !=
                        (starky ? starkDirect.proofBlob
                                : plonkDirect.proofBlob)) {
                    failures.fetch_add(1);
                }
            }
        });
    }
    for (auto &t : clients)
        t.join();
    EXPECT_EQ(failures.load(), 0);

    svc.stop();
    const ServiceCounters counters = svc.counters();
    EXPECT_EQ(counters.requestsCompleted, 8u);
    EXPECT_EQ(counters.connectionsAccepted, 4u);
}

} // namespace
} // namespace service
} // namespace unizk
