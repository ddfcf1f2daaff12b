/**
 * @file
 * The command lines of the service tools, vqad and vqac. Each is
 * parsed whole before any socket opens or any worker starts, so a bad
 * flag or value prints the problem and the usage line and the tool
 * exits 2 with nothing started. Numbers go through nonNegative()
 * (common/cli.hpp), the parser the figure drivers use, and vqad's
 * parsed config through ServeConfig::validate(), so a --workers above
 * kMaxWorkers, or a --max-pending or --quota above serve::kMaxAdmitted,
 * exits 2 too.
 */

#ifndef EFTVQA_TOOLS_TOOL_ARGS_HPP
#define EFTVQA_TOOLS_TOOL_ARGS_HPP

#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>

#include "common/cli.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"

namespace eftvqa {
namespace tools {

/** vqad's flags as a ServeConfig; nullopt after printing to @p err. */
inline std::optional<serve::ServeConfig>
parseVqadArgs(int argc, char **argv, std::ostream &err)
{
    serve::ServeConfig config;
    std::string problem;
    for (int i = 1; i < argc && problem.empty(); ++i) {
        const std::string flag = argv[i];
        const bool value = i + 1 < argc;
        if (flag == "--socket" && value)
            config.socket_path = argv[++i];
        else if (flag == "--tcp" && value)
            problem = readNonNegative(flag, argv[++i], config.tcp_port);
        else if (flag == "--workers" && value)
            problem = readNonNegative(flag, argv[++i], config.workers);
        else if (flag == "--max-pending" && value)
            problem = readNonNegative(flag, argv[++i], config.max_pending);
        else if (flag == "--quota" && value)
            problem = readNonNegative(flag, argv[++i],
                                      config.per_client_inflight);
        else if (flag == "--cell-timeout" && value)
            problem =
                readNonNegative(flag, argv[++i], config.cell_timeout_ms);
        else if (flag == "--store" && value)
            config.store_path = argv[++i];
        else
            problem = "unknown or incomplete flag '" + flag + "'";
    }
    if (problem.empty() && config.socket_path.empty())
        problem = "--socket <path> is required";
    if (problem.empty()) {
        // The daemon's own checks, worker and admission limits
        // included, before any socket opens.
        try {
            config.validate();
            return config;
        } catch (const std::invalid_argument &e) {
            problem = e.what();
        }
    }
    err << "vqad: " << problem << "\nusage: " << argv[0]
        << " --socket <path> [--tcp <port>] [--workers <n>]\n"
           "            [--max-pending <n>] [--quota <n>] "
           "[--cell-timeout <ms>] [--store <path>]\n";
    return std::nullopt;
}

/** A parsed vqac command line. */
struct VqacArgs
{
    std::string socket_path;
    std::string command;            ///< ping | stats | list | run
    serve::DaemonRunOptions run;    ///< run: workload and options
    std::string cells_path;         ///< run --cells/--store ("" = none)
};

/** vqac's command line; nullopt after printing to @p err. */
inline std::optional<VqacArgs>
parseVqacArgs(int argc, char **argv, std::ostream &err)
{
    VqacArgs args;
    std::string problem;
    if (argc < 3) {
        problem = "needs a socket and a command";
    } else {
        args.socket_path = argv[1];
        args.command = argv[2];
        if (args.command == "run" && argc < 4)
            problem = "run needs a workload name";
        else if (args.command != "ping" && args.command != "stats" &&
                 args.command != "list" && args.command != "run")
            problem = "unknown command '" + args.command + "'";
    }
    if (problem.empty() && args.command == "run") {
        args.run.workload = argv[3];
        for (int i = 4; i < argc && problem.empty(); ++i) {
            const std::string flag = argv[i];
            const bool value = i + 1 < argc;
            if (flag == "--mode" && value)
                args.run.mode = argv[++i];
            else if ((flag == "--cells" || flag == "--store") && value)
                args.cells_path = argv[++i];
            else if (flag == "--isolate")
                args.run.isolation = "process";
            else if (flag == "--inflight" && value)
                problem = readNonNegative(flag, argv[++i],
                                          args.run.max_inflight);
            else
                problem = "unknown run argument '" + flag + "'";
        }
    }
    if (problem.empty())
        return args;
    const char *argv0 = argv[0];
    err << "vqac: " << problem << "\nusage: " << argv0 << " <socket> ping\n"
        << "       " << argv0 << " <socket> stats\n"
        << "       " << argv0 << " <socket> list\n"
        << "       " << argv0
        << " <socket> run <workload> [--mode smoke|default|full]\n"
           "            [--cells <store>] [--isolate] [--inflight <n>]\n";
    return std::nullopt;
}

} // namespace tools
} // namespace eftvqa

#endif // EFTVQA_TOOLS_TOOL_ARGS_HPP
