/**
 * @file
 * Synchronous client for the unizkd proving service. One ServiceClient
 * owns one connection and issues closed-loop requests: send a frame,
 * block for the response frame, decode. Used by the unizk_load runner,
 * the unizk_client / unizk_top tools and by tests.
 */

#ifndef UNIZK_SERVICE_CLIENT_H
#define UNIZK_SERVICE_CLIENT_H

#include <optional>
#include <string>

#include "service/protocol.h"
#include "service/socket_io.h"

namespace unizk {
namespace service {

class ServiceClient
{
  public:
    /** Connect to the daemon at @p socket_path. Check connected(). */
    explicit ServiceClient(const std::string &socket_path);

    bool connected() const { return fd_.valid(); }

    /**
     * Issue one request and wait for the response. Returns nullopt on
     * transport failure (disconnect, truncated/oversized response);
     * protocol-level rejections come back as Tag::Error frames.
     */
    std::optional<ResponseFrame> prove(const ProveRequest &req);
    std::optional<ResponseFrame> ping();
    std::optional<ResponseFrame> shutdownServer();

    /** Rotate and fetch the daemon's stats window (Tag::GetStats).
     *  Safe to issue while other connections are mid-request. */
    std::optional<ResponseFrame> getStats();

    /** Send raw payload bytes as one frame (tests: malformed input). */
    bool sendRaw(const std::vector<uint8_t> &payload);

    /** Read and decode one response frame (pairs with sendRaw). */
    std::optional<ResponseFrame> readResponse();

    /** Drop the connection (tests: mid-request disconnect). */
    void disconnect() { fd_.reset(); }

  private:
    std::optional<ResponseFrame>
    roundTrip(const std::vector<uint8_t> &payload);

    Fd fd_;
};

} // namespace service
} // namespace unizk

#endif // UNIZK_SERVICE_CLIENT_H
