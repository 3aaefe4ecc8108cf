/**
 * @file
 * unizk_client: control tool for a running unizkd.
 *
 *   unizk_client --socket /tmp/unizkd.sock [--ping] [--shutdown] \
 *                [--threads N]
 *
 * --ping checks that the daemon answers; --shutdown asks it to drain
 * and exit through the protocol Shutdown frame. With both, the ping
 * goes first. Driving load and checking served proofs byte for byte is
 * unizk_load's job (`unizk_load --check`).
 *
 * Exits 0 iff every requested action was acknowledged, 1 when the
 * daemon does not acknowledge one, and 2 (after printing the usage)
 * when neither action is given.
 */

#include <cstdio>
#include <string>

#include "common/cli.h"
#include "common/logging.h"
#include "service/client.h"

int
main(int argc, char **argv)
{
    using namespace unizk;
    using service::ServiceClient;
    using service::Tag;

    CliOptions cli(argc, argv);
    applyGlobalCliOptions(cli);

    if (!cli.has("ping") && !cli.has("shutdown")) {
        std::fprintf(stderr,
                     "usage: unizk_client [--socket PATH] [--ping] "
                     "[--shutdown] [--threads N]\n"
                     "  (drive load with unizk_load)\n");
        return 2;
    }
    const std::string socket_path =
        cli.getString("socket", "unizkd.sock");

    if (cli.has("ping")) {
        ServiceClient client(socket_path);
        const auto resp = client.ping();
        if (!resp || resp->tag != Tag::Pong) {
            warn("unizk_client: no pong from ", socket_path);
            return 1;
        }
        std::printf("unizk_client: pong\n");
    }
    if (cli.has("shutdown")) {
        ServiceClient client(socket_path);
        const auto resp = client.shutdownServer();
        if (!resp || resp->tag != Tag::ShutdownAck) {
            warn("unizk_client: shutdown not acknowledged");
            return 1;
        }
        std::printf("unizk_client: server acknowledged shutdown\n");
    }
    return 0;
}
