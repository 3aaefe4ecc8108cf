/**
 * @file
 * Wire protocol for the unizkd proving service: length-prefixed binary
 * frames layered on the serialize ByteReader/ByteWriter primitives.
 *
 * Framing
 *   Every message is one frame: a u64 little-endian payload length
 *   followed by that many payload bytes. The length is untrusted input
 *   and is bounded (kMaxRequestFrameBytes on the server side,
 *   kMaxResponseFrameBytes on the client side) *before* any allocation
 *   -- the same no-allocation-from-unbounded-claims discipline the
 *   proof deserializers follow via ByteReader::canRead.
 *
 * Payloads
 *   Each payload starts with a u64 tag. Decoding is total: malformed
 *   payloads yield std::nullopt, never undefined behaviour, because a
 *   server reading untrusted bytes cannot tolerate less.
 */

#ifndef UNIZK_SERVICE_PROTOCOL_H
#define UNIZK_SERVICE_PROTOCOL_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fri/fri_config.h"
#include "obs/obs.h"
#include "unizk/pipeline.h"
#include "workloads/apps.h"

namespace unizk {
namespace service {

/** Hard ceilings on frame payload sizes, checked before allocating. */
constexpr uint64_t kMaxRequestFrameBytes = uint64_t{1} << 16;
constexpr uint64_t kMaxResponseFrameBytes = uint64_t{1} << 28;

/**
 * Payload tags. Requests are client -> server, responses the reverse.
 *
 * Versioning: ProveV2/ProveOkV2 extend the v1 prove frames with a
 * trace id (and, on the response, the server-side latency
 * decomposition). The v1 layouts are frozen -- a v1 client talking to
 * a v2 server (or the reverse) keeps working, because a prove request
 * without a trace id is encoded as Tag::Prove and answered with
 * Tag::ProveOk, while a traced request uses the V2 pair end to end
 * (traceId != 0 <=> V2 frames; regression-tested both directions).
 */
enum class Tag : uint64_t
{
    // Requests.
    Prove = 1,
    Ping = 2,
    Shutdown = 3,
    ProveV2 = 4,  ///< Prove + trailing non-zero traceId
    GetStats = 5, ///< rotate + fetch the daemon's stats window

    // Responses.
    ProveOk = 101,
    Pong = 102,
    ShutdownAck = 103,
    Error = 104,
    ProveOkV2 = 105, ///< ProveOk + trace echo and timing decomposition
    StatsOk = 106,
};

/** Typed error codes carried by Tag::Error frames. */
enum class ErrorCode : uint64_t
{
    BadFrame = 1,    ///< malformed / oversized / truncated frame
    BadRequest = 2,  ///< unknown tag or out-of-range request fields
    QueueFull = 3,   ///< admission control rejected the request
    ShuttingDown = 4 ///< server is draining; no new work accepted
};

const char *errorCodeName(ErrorCode code);

/** Proof-system selector on the wire. */
enum class WireProtocol : uint64_t
{
    Plonky2 = 0,
    Starky = 1,
};

/** One proof request. All fields are validated on decode. */
struct ProveRequest
{
    WireProtocol protocol = WireProtocol::Plonky2;
    AppId app = AppId::Factorial;
    uint64_t rows = 0; ///< 0 = the app's default shape
    uint64_t reps = 0; ///< 0 = the app's default (Plonky2 only)
    bool fast = true;  ///< reduced FRI security, as unizk_cli --fast
    bool verify = true;
    /** Client-generated trace id; 0 = untraced (encoded as a legacy
     *  Tag::Prove frame). Non-zero selects the ProveV2 frame, tags the
     *  daemon's per-request span tree, and is echoed in the response
     *  together with the server-side timing decomposition. */
    uint64_t traceId = 0;
};

/** Successful proof response. */
struct ProveResponse
{
    bool verified = false;
    uint64_t latencyNs = 0;   ///< queue admission -> response serialized
    uint64_t queueDepth = 0;  ///< jobs ahead of this one at admission
    std::vector<uint8_t> proof; ///< canonical serialized proof bytes

    /** True iff the ProveOkV2 fields below are populated (the request
     *  carried a trace id). The server guarantees
     *  queuedNs + proveNs + serializeNs <= latencyNs by sampling
     *  latencyNs last. */
    bool hasServerTiming = false;
    uint64_t traceId = 0;     ///< echo of the request's trace id
    uint64_t laneId = 0;      ///< prover lane that ran the request
    uint64_t queuedNs = 0;    ///< admission -> lane dequeue
    /** runRequest on the lane: prepared-circuit lookup (build and,
     *  for Plonky2, setup on a cache miss only), prove, kernel-trace
     *  recording, proof serialization, verification (if requested)
     *  and UniZK simulation. */
    uint64_t proveNs = 0;
    uint64_t serializeNs = 0; ///< response proof-section serialization
};

/** One counter as carried by a StatsOk frame. */
struct StatsCounterWindow
{
    std::string name;
    uint64_t delta = 0;
    uint64_t cumulative = 0;
};

/** One histogram as carried by a StatsOk frame (dense buckets). */
struct StatsHistogramWindow
{
    std::string name;
    obs::HistogramData delta;
    obs::HistogramData cumulative;
};

/**
 * One stats window (GetStats response): the obs snapshot rotation
 * (sequence, interval, per-name delta+cumulative) plus live service
 * gauges (queue occupancy, lane occupancy, span drops).
 */
struct StatsResponse
{
    uint64_t sequence = 0;
    uint64_t windowStartNs = 0;
    uint64_t windowEndNs = 0;
    uint64_t queueDepth = 0;
    uint64_t queueCapacity = 0;
    uint64_t lanes = 0;
    uint64_t lanesBusy = 0;
    uint64_t spansDropped = 0;
    std::vector<StatsCounterWindow> counters;     ///< sorted by name
    std::vector<StatsHistogramWindow> histograms; ///< sorted by name
};

/** Typed error response. */
struct ErrorResponse
{
    ErrorCode code = ErrorCode::BadFrame;
    std::string message;
};

/** A decoded request payload (tag + per-tag body). Traced prove
 *  requests decode with tag == Tag::Prove (the prove body's traceId
 *  distinguishes them), so server dispatch stays tag-version-blind. */
struct RequestFrame
{
    Tag tag = Tag::Ping;
    ProveRequest prove; ///< valid iff tag == Tag::Prove
};

/** A decoded response payload (tag + per-tag body). V2 prove
 *  responses decode with tag == Tag::ProveOk and
 *  prove.hasServerTiming == true. */
struct ResponseFrame
{
    Tag tag = Tag::Pong;
    ProveResponse prove; ///< valid iff tag == Tag::ProveOk
    ErrorResponse error; ///< valid iff tag == Tag::Error
    StatsResponse stats; ///< valid iff tag == Tag::StatsOk
};

// Request-field ceilings enforced by decodeRequest: the prover pads
// rows to a power of two and materializes 3*reps wire columns, so an
// unbounded claim would be an allocation-DoS just like an unbounded
// proof length prefix.
constexpr uint64_t kMaxRequestRows = uint64_t{1} << 20;
constexpr uint64_t kMaxRequestReps = 128;

/**
 * Resolve a request to concrete prover inputs, mirroring unizk_cli's
 * --fast and default-shape handling, which is what makes service
 * proofs byte-identical to the direct CLI path.
 */
FriConfig requestFriConfig(const ProveRequest &req);
size_t requestRows(const ProveRequest &req);
size_t requestReps(const ProveRequest &req);

class KeyCache;

/**
 * Prove @p req in process: provePreparedApp, with paper-default
 * hardware, on the prepared circuit of the request's resolved shape
 * from @p cache (prepared now on a miss). This is runPlonky2App or
 * runStarkyApp on the inputs above, minus the repeated build and
 * setup. Prover lanes serve requests through it with the service's
 * cache and unizk_load --check computes its reference proofs with it
 * and a local cache, so the two cannot drift apart.
 */
AppRunResult runRequest(const ProveRequest &req, KeyCache &cache);

/** Emits Tag::Prove when req.traceId == 0, Tag::ProveV2 otherwise. */
std::vector<uint8_t> encodeProveRequest(const ProveRequest &req);
std::vector<uint8_t> encodePing();
std::vector<uint8_t> encodeShutdown();
std::vector<uint8_t> encodeGetStats();

/** Emits Tag::ProveOk, or Tag::ProveOkV2 when resp.hasServerTiming. */
std::vector<uint8_t> encodeProveResponse(const ProveResponse &resp);

/**
 * Two-step prove-response encoding for the server's serialization
 * clock: encodeProofSection serializes the (dominant) length-prefixed
 * proof bytes, finishProveResponse prepends the header fields. The
 * split lets a prover lane time the proof serialization *before* it
 * samples the final latencyNs that goes into the header, so
 * queuedNs + proveNs + serializeNs <= latencyNs holds by
 * construction. For any resp,
 *   finishProveResponse(resp, encodeProofSection(resp.proof))
 *     == encodeProveResponse(resp)   (pinned by test_service).
 */
std::vector<uint8_t>
encodeProofSection(const std::vector<uint8_t> &proof);
std::vector<uint8_t>
finishProveResponse(const ProveResponse &resp,
                    const std::vector<uint8_t> &proof_section);

std::vector<uint8_t> encodePong();
std::vector<uint8_t> encodeShutdownAck();
std::vector<uint8_t> encodeError(ErrorCode code,
                                 const std::string &message);
std::vector<uint8_t> encodeStatsResponse(const StatsResponse &stats);

/**
 * Decode a request payload. Returns std::nullopt for unknown tags,
 * out-of-range fields (rows/reps/app/protocol), a Starky request for
 * an app without a Starky implementation, or trailing bytes.
 */
std::optional<RequestFrame>
decodeRequest(const std::vector<uint8_t> &payload);

/** Decode a response payload (client side); total like decodeRequest. */
std::optional<ResponseFrame>
decodeResponse(const std::vector<uint8_t> &payload);

} // namespace service
} // namespace unizk

#endif // UNIZK_SERVICE_PROTOCOL_H
