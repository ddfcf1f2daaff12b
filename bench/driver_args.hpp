/**
 * @file
 * Shared command-line handling and JSON emission for the bench/fig
 * drivers.
 *
 * Every figure driver used to copy-paste its `--full` strcmp; this
 * header gives them one parser with the common flags:
 *
 *   --full         paper-scale workload (vs the laptop-sized default)
 *   --smoke        CI-sized workload (overrides --full)
 *   --out <path>   emit a machine-readable JSON result file, the way
 *                  parallel_bench does
 *   --cells <path> resumable sweep cell store (the append-only
 *                  binary SweepStore, store/sink.hpp): cells whose
 *                  key is already in the store are skipped on rerun.
 *                  A JSON store converts with `vqastore import`, and
 *                  `vqastore export` writes a store back out as JSON
 *   --store <path> alias for --cells
 *   --retry-failed re-execute cells the store holds quarantine
 *                  markers for (implies FaultPolicy::isolate)
 *   --cell-timeout <ms>  per-cell soft deadline in milliseconds
 *                  (implies FaultPolicy::isolate)
 *   --isolation <in_process|process>  run cells in forked worker
 *                  processes under the vqa/procpool.hpp supervisor
 *                  (implies FaultPolicy::isolate); with --cells the
 *                  supervisor log lands next to the store as
 *                  <cells>.suplog
 *   --workers <n>  worker process count for --isolation process
 *   --cell-hard-timeout <ms>  per-cell hard deadline: the supervisor
 *                  watchdog SIGKILLs a wedged worker (process
 *                  isolation only)
 *   --inject-abort <n>  arm the seeded fault injector to SIGABRT the
 *                  first n cell executions (EFTVQA_FAULTS overrides
 *                  the seed). Aborts are gated to worker processes,
 *                  so this is a no-op without --isolation process —
 *                  the crash-matrix CI job drives it
 *   --merge <out> <in...>  merge N sweep cell stores into <out> and
 *                  exit (quarantine markers propagate, byte conflicts
 *                  fail loudly)
 *   --daemon <socket>  ship the sweep's cells to a running vqad
 *                  daemon (src/serve/) over its Unix socket instead of
 *                  evaluating locally; results are verified and stored
 *                  exactly as a local run would store them
 *
 * The JSON writer itself lives in src/common/json.hpp (the sweep
 * layer's cell store shares it); this header re-exports it under the
 * historical bench:: names.
 */

#ifndef EFTVQA_BENCH_DRIVER_ARGS_HPP
#define EFTVQA_BENCH_DRIVER_ARGS_HPP

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "vqa/fault.hpp"

namespace eftvqa {
namespace bench {

using JsonWriter = ::eftvqa::JsonWriter;

/** Common fig/bench driver flags. */
struct DriverArgs
{
    bool full = false;   ///< --full: paper-scale workload
    bool smoke = false;  ///< --smoke: CI-sized workload
    std::string out;     ///< --out <path>: JSON result file ("" = none)
    std::string cells;   ///< --cells/--store <path>: resumable cell store
    bool retry_failed = false;   ///< --retry-failed: rerun quarantined cells
    double cell_timeout_ms = 0;  ///< --cell-timeout <ms>: soft deadline
    std::string isolation;       ///< --isolation: "" (default) | "in_process" | "process"
    size_t workers = 0;          ///< --workers <n>: process-pool size (0 = auto)
    double cell_hard_timeout_ms = 0; ///< --cell-hard-timeout <ms>: watchdog SIGKILL
    size_t inject_abort = 0;     ///< --inject-abort <n>: seeded SIGABRT faults
    std::string merge_out;       ///< --merge <out>: merge stores and exit
    std::vector<std::string> merge_inputs; ///< the <in...> of --merge
    std::string daemon;          ///< --daemon <socket>: run via vqad

    /** Parse argv; unknown flags print usage to stderr and exit(2). */
    static DriverArgs
    parse(int argc, char **argv)
    {
        DriverArgs args;
        for (int i = 1; i < argc; ++i) {
            if (std::strcmp(argv[i], "--full") == 0) {
                args.full = true;
            } else if (std::strcmp(argv[i], "--smoke") == 0) {
                args.smoke = true;
            } else if (std::strcmp(argv[i], "--out") == 0 &&
                       i + 1 < argc) {
                args.out = argv[++i];
            } else if ((std::strcmp(argv[i], "--cells") == 0 ||
                        std::strcmp(argv[i], "--store") == 0) &&
                       i + 1 < argc) {
                args.cells = argv[++i];
            } else if (std::strcmp(argv[i], "--retry-failed") == 0) {
                args.retry_failed = true;
            } else if (std::strcmp(argv[i], "--cell-timeout") == 0 &&
                       i + 1 < argc) {
                args.cell_timeout_ms = std::atof(argv[++i]);
            } else if (std::strcmp(argv[i], "--isolation") == 0 &&
                       i + 1 < argc) {
                args.isolation = argv[++i];
                if (args.isolation != "in_process" &&
                    args.isolation != "process") {
                    std::cerr << "--isolation takes in_process or "
                                 "process, not '"
                              << args.isolation << "'\n";
                    std::exit(2);
                }
            } else if (std::strcmp(argv[i], "--workers") == 0 &&
                       i + 1 < argc) {
                args.workers =
                    static_cast<size_t>(std::atol(argv[++i]));
            } else if (std::strcmp(argv[i], "--cell-hard-timeout") ==
                           0 &&
                       i + 1 < argc) {
                args.cell_hard_timeout_ms = std::atof(argv[++i]);
            } else if (std::strcmp(argv[i], "--inject-abort") == 0 &&
                       i + 1 < argc) {
                args.inject_abort =
                    static_cast<size_t>(std::atol(argv[++i]));
            } else if (std::strcmp(argv[i], "--daemon") == 0 &&
                       i + 1 < argc) {
                args.daemon = argv[++i];
            } else if (std::strcmp(argv[i], "--merge") == 0 &&
                       i + 2 < argc) {
                // --merge <out> <in...> consumes the rest of argv.
                args.merge_out = argv[++i];
                while (++i < argc)
                    args.merge_inputs.push_back(argv[i]);
            } else {
                std::cerr << "usage: " << argv[0]
                          << " [--full|--smoke] [--out <json>] "
                             "[--cells|--store <path>] "
                             "[--retry-failed] "
                             "[--cell-timeout <ms>] "
                             "[--isolation in_process|process] "
                             "[--workers <n>] "
                             "[--cell-hard-timeout <ms>] "
                             "[--inject-abort <n>] "
                             "[--daemon <socket>] "
                             "[--merge <out> <in...>]\n";
                std::exit(2);
            }
        }
        if (args.smoke)
            args.full = false; // CI size wins
        return args;
    }

    /** "smoke" / "full" / "default" — for logs and JSON. */
    const char *
    modeName() const
    {
        return smoke ? "smoke" : (full ? "full" : "default");
    }
};

/**
 * Forward the fault-handling flags into a SweepSpec: either flag
 * switches the sweep to FaultPolicy::isolate so one bad cell cannot
 * poison the figure. Templated so non-sweep drivers can include this
 * header without pulling in the sweep layer.
 */
template <class Spec>
inline void
applyFaultArgs(const DriverArgs &args, Spec &sweep)
{
    const bool process = args.isolation == "process";
    if (!args.retry_failed && args.cell_timeout_ms <= 0.0 &&
        !process && args.inject_abort == 0)
        return;
    sweep.fault_policy = decltype(sweep.fault_policy)::isolate;
    sweep.retry_failed = args.retry_failed;
    sweep.cell_timeout_ms = args.cell_timeout_ms;
    if (process) {
        sweep.isolation = decltype(sweep.isolation)::process;
        sweep.process_workers = args.workers;
        sweep.cell_hard_timeout_ms = args.cell_hard_timeout_ms;
        if (!args.cells.empty())
            sweep.supervisor_log = args.cells + ".suplog";
    }
    if (args.inject_abort > 0) {
        // Seeded so the CI crash matrix can replay a run via
        // EFTVQA_FAULTS. The aborts only ever fire inside worker
        // processes the supervisor opted in (see FaultKind::Abort);
        // retries must cover the whole abort budget so the sweep
        // still ends green.
        FaultInjector::instance().arm(
            FaultInjector::envSeed().value_or(42),
            {FaultSpec{"cell.start", FaultKind::Abort, 1.0, 0,
                       args.inject_abort, 0.0}});
        if (sweep.cell_attempts < args.inject_abort + 1)
            sweep.cell_attempts = args.inject_abort + 1;
    }
}

/** Open @p path for writing, exiting loudly on failure. */
inline std::ofstream
openJsonOut(const std::string &path)
{
    std::ofstream os(path);
    if (!os) {
        std::cerr << "cannot write " << path << "\n";
        std::exit(1);
    }
    return os;
}

} // namespace bench
} // namespace eftvqa

#endif // EFTVQA_BENCH_DRIVER_ARGS_HPP
