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

#include <iostream>
#include <memory>
#include <string>

#include "serve/client.hpp"
#include "serve/workloads.hpp"
#include "store/sink.hpp"
#include "tool_args.hpp"
#include "vqa/sweep.hpp"

namespace {

int
runCommand(eftvqa::serve::DaemonClient &client,
           const eftvqa::tools::VqacArgs &args)
{
    using namespace eftvqa;

    // Build the workload locally — identical builder, identical cells,
    // identical content keys — to know what to ask the daemon for.
    const serve::Workload wl = serve::WorkloadCatalog::builtin().build(
        args.run.workload, args.run.mode);
    const std::vector<SweepCell> cells = wl.spec.cells();

    std::unique_ptr<SweepSink> sink;
    if (!args.cells_path.empty())
        sink = store::makeSweepSink(args.cells_path, wl.spec.name);

    const SweepReport report =
        serve::runSweepViaDaemon(client, cells, args.run, sink.get());
    std::cout << "vqac: " << args.run.workload << ": " << report.cells
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

    // Parse the whole command line before connecting: a bad flag or
    // value exits 2 without touching the daemon.
    const auto args = tools::parseVqacArgs(argc, argv, std::cerr);
    if (!args)
        return 2;
    const std::string &command = args->command;

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
            serve::DaemonClient::connectUnix(args->socket_path);
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
        return runCommand(client, *args);
    } catch (const std::exception &e) {
        std::cerr << "vqac: " << e.what() << "\n";
        return 1;
    }
}
