/**
 * @file
 * vqac — command-line client for the vqad experiment service daemon.
 *
 *   vqac <socket> ping
 *   vqac <socket> stats
 *   vqac <socket> list
 *   vqac <socket> run <workload> [--mode smoke|default|full]
 *                 [--cells <store>] [--isolate] [--inflight <n>]
 *
 * `run` builds the named workload locally (the same builder the daemon
 * uses) to enumerate its cells, then streams them through the daemon
 * with runSweepViaDaemon. With --cells the results land in a normal
 * checksummed sweep store — byte-identical to what a local driver run
 * would write — and an existing store resumes (completed cells are
 * skipped client-side, never re-requested).
 */

#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>

#include "serve/client.hpp"
#include "serve/workloads.hpp"
#include "store/sink.hpp"
#include "vqa/sweep.hpp"

namespace {

int
usage(const char *argv0)
{
    std::cerr
        << "usage: " << argv0 << " <socket> ping\n"
        << "       " << argv0 << " <socket> stats\n"
        << "       " << argv0 << " <socket> list\n"
        << "       " << argv0
        << " <socket> run <workload> [--mode smoke|default|full]\n"
           "            [--cells <store>] [--isolate] "
           "[--inflight <n>]\n";
    return 2;
}

int
runCommand(eftvqa::serve::DaemonClient &client, int argc, char **argv)
{
    using namespace eftvqa;

    if (argc < 4) {
        std::cerr << "vqac: run needs a workload name\n";
        return 2;
    }
    const std::string workload = argv[3];
    serve::DaemonRunOptions options;
    options.workload = workload;
    std::string cells_path;
    for (int i = 4; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--mode" && has_value) {
            options.mode = argv[++i];
        } else if ((arg == "--cells" || arg == "--store") &&
                   has_value) {
            cells_path = argv[++i];
        } else if (arg == "--isolate") {
            options.isolation = "process";
        } else if (arg == "--inflight" && has_value) {
            options.max_inflight =
                static_cast<size_t>(std::atoll(argv[++i]));
        } else {
            std::cerr << "vqac: unknown run argument '" << arg << "'\n";
            return 2;
        }
    }

    // Build the workload locally — identical builder, identical cells,
    // identical content keys — to know what to ask the daemon for.
    const serve::Workload wl =
        serve::WorkloadCatalog::builtin().build(workload, options.mode);
    const std::vector<SweepCell> cells = wl.spec.cells();

    std::unique_ptr<SweepSink> sink;
    if (!cells_path.empty())
        sink = store::makeSweepSink(cells_path, wl.spec.name);

    const SweepReport report =
        serve::runSweepViaDaemon(client, cells, options, sink.get());
    std::cout << "vqac: " << workload << ": " << report.cells
              << " cells, " << report.executed << " executed, "
              << report.skipped << " skipped, " << report.failed
              << " failed" << std::endl;
    return report.failed == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace eftvqa;

    if (argc < 3)
        return usage(argv[0]);
    const std::string socket_path = argv[1];
    const std::string command = argv[2];

    try {
        if (command == "list") {
            // Catalog names are compiled into both binaries; no need
            // to bother the daemon for them.
            for (const std::string &name :
                 serve::WorkloadCatalog::builtin().names())
                std::cout << name << "\n";
            return 0;
        }

        serve::DaemonClient client =
            serve::DaemonClient::connectUnix(socket_path);
        if (command == "ping") {
            if (!client.sendPing(1))
                throw std::runtime_error("vqac: daemon hung up");
            serve::DaemonReply reply;
            if (!client.readReply(reply) || reply.type != "pong")
                throw std::runtime_error("vqac: expected a pong reply");
            std::cout << "pong" << std::endl;
            return 0;
        }
        if (command == "stats") {
            const serve::DaemonReply reply = client.stats();
            for (const auto &[name, value] : reply.fields.fields()) {
                (void)value;
                if (name == "type" || name == "id")
                    continue;
                std::cout << name << " "
                          << reply.fields.integer(name) << "\n";
            }
            return 0;
        }
        if (command == "run")
            return runCommand(client, argc, argv);
        return usage(argv[0]);
    } catch (const std::exception &e) {
        std::cerr << "vqac: " << e.what() << "\n";
        return 1;
    }
}
