/**
 * @file
 * vqad — the experiment service daemon binary.
 *
 * Thin shell around serve::Daemon: parse flags, install the SIGTERM/
 * SIGINT self-pipe, run until a signal arrives, then drain gracefully
 * (stop admitting, answer every in-flight cell, exit 0). Usage:
 *
 *   vqad --socket /tmp/vqad.sock [--tcp <port>] [--workers <n>]
 *        [--max-pending <n>] [--quota <n>] [--cell-timeout <ms>]
 */

#include <cerrno>
#include <csignal>
#include <iostream>

#include <unistd.h>

#include "serve/daemon.hpp"
#include "tool_args.hpp"

namespace {

int g_signal_pipe[2] = {-1, -1};

void
onSignal(int)
{
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = write(g_signal_pipe[1], &byte, 1);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace eftvqa;

    // Parse every flag before the daemon binds its socket or starts
    // a worker: a bad command line exits 2 with nothing started.
    const auto parsed = tools::parseVqadArgs(argc, argv, std::cerr);
    if (!parsed)
        return 2;
    const serve::ServeConfig &config = *parsed;

    if (pipe(g_signal_pipe) != 0) {
        std::cerr << "vqad: cannot create the signal pipe\n";
        return 1;
    }

    try {
        serve::Daemon daemon(config, serve::WorkloadCatalog::builtin());

        struct sigaction sa = {};
        sa.sa_handler = onSignal;
        sigaction(SIGTERM, &sa, nullptr);
        sigaction(SIGINT, &sa, nullptr);

        std::cout << "vqad: serving on " << config.socket_path;
        if (daemon.tcpPort() != 0)
            std::cout << " and 127.0.0.1:" << daemon.tcpPort();
        std::cout << std::endl;

        // Park until SIGTERM/SIGINT lands on the self-pipe.
        char byte = 0;
        while (read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
        }

        std::cout << "vqad: draining..." << std::endl;
        daemon.beginDrain();
        daemon.waitDrained();
        const serve::DaemonStats stats = daemon.stats();
        daemon.stop();
        std::cout << "vqad: drained clean (completed "
                  << stats.cells_completed << ", coalesced "
                  << stats.cells_coalesced << ", cancelled "
                  << stats.cells_cancelled << ", failed "
                  << stats.cells_failed << ")" << std::endl;
    } catch (const std::exception &e) {
        std::cerr << "vqad: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
