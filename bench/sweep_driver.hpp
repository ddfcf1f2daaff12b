/**
 * @file
 * The one driver body behind every sweep figure (fig12-15 and the
 * section 4.4 Rz/CNOT ablation), and the command line the bench
 * drivers share.
 *
 * A sweep figure's main is one call, runSweepFigure(<catalog name>,
 * <figure>, argc, argv): the body builds the named workload from
 * serve::WorkloadCatalog::builtin() and owns the plumbing, the figure
 * owns its banner, its table and its summary fields. Flags:
 *
 *   --full | --smoke   paper-scale | CI-sized workload (--smoke wins)
 *   --out <path>       machine-readable JSON result file
 *   --cells <path>     resumable binary sweep store (alias --store):
 *                      cells already stored are skipped on rerun; a
 *                      JSON store converts with `vqastore import`
 *   --retry-failed     re-execute cells the store holds quarantine
 *                      markers for
 *   --cell-timeout <ms>  per-cell soft deadline
 *   --isolation in_process|process  run cells in forked workers under
 *                      the vqa/procpool.hpp supervisor (its log lands
 *                      at <cells>.suplog)
 *   --workers <n>      worker processes for --isolation process
 *   --cell-hard-timeout <ms>  watchdog SIGKILL deadline (process only)
 *   --inject-abort <n> arm the seeded injector to SIGABRT the first n
 *                      cell executions in worker processes
 *                      (EFTVQA_FAULTS overrides the seed)
 *   --merge <out> <in...>  merge sweep stores into <out> and exit
 *   --daemon <socket>  evaluate the cells on a running vqad instead;
 *                      results are verified and stored as a local run
 *                      would store them
 *
 * --retry-failed, --cell-timeout, --isolation process and
 * --inject-abort switch the sweep to FaultPolicy::isolate. A bad
 * command line (unknown flag, missing value, a number that is not
 * >= 0) prints the usage line and exits 2.
 * Any other error prints "<bench>: <what>" and exits 1; quarantined
 * cells are reported and left out, not fatal.
 */

#ifndef EFTVQA_BENCH_SWEEP_DRIVER_HPP
#define EFTVQA_BENCH_SWEEP_DRIVER_HPP

#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "serve/client.hpp"
#include "serve/workloads.hpp"
#include "store/sink.hpp"
#include "vqa/fault.hpp"
#include "vqa/sweep.hpp"

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

    /**
     * Parse argv. A bad command line prints the problem and the usage
     * line to @p err and returns nullopt. With @p sweep_flags false
     * only --full, --smoke and --out are accepted (drivers that run
     * no sweep).
     */
    static std::optional<DriverArgs>
    tryParse(int argc, char **argv, std::ostream &err,
             bool sweep_flags = true)
    {
        DriverArgs args;
        for (int i = 1; i < argc; ++i) {
            const std::string flag = argv[i];
            const bool value = i + 1 < argc;
            std::string problem;
            // Reads the flag's value into @p field, a number >= 0.
            const auto number = [&](auto &field) {
                problem = readNonNegative(flag, argv[++i], field);
            };
            if (flag == "--full") {
                args.full = true;
            } else if (flag == "--smoke") {
                args.smoke = true;
            } else if (flag == "--out" && value) {
                args.out = argv[++i];
            } else if (!sweep_flags) {
                problem = "unknown or incomplete flag '" + flag + "'";
            } else if ((flag == "--cells" || flag == "--store") && value) {
                args.cells = argv[++i];
            } else if (flag == "--retry-failed") {
                args.retry_failed = true;
            } else if (flag == "--cell-timeout" && value) {
                number(args.cell_timeout_ms);
            } else if (flag == "--isolation" && value) {
                args.isolation = argv[++i];
                if (args.isolation != "in_process" &&
                    args.isolation != "process")
                    problem = "--isolation takes in_process or process, "
                              "not '" + args.isolation + "'";
            } else if (flag == "--workers" && value) {
                number(args.workers);
            } else if (flag == "--cell-hard-timeout" && value) {
                number(args.cell_hard_timeout_ms);
            } else if (flag == "--inject-abort" && value) {
                number(args.inject_abort);
            } else if (flag == "--daemon" && value) {
                args.daemon = argv[++i];
            } else if (flag == "--merge" && i + 2 < argc) {
                // --merge <out> <in...> consumes the rest of argv.
                args.merge_out = argv[++i];
                while (++i < argc)
                    args.merge_inputs.push_back(argv[i]);
            } else {
                problem = "unknown or incomplete flag '" + flag + "'";
            }
            if (problem.empty())
                continue;
            err << argv[0] << ": " << problem << "\nusage: " << argv[0]
                << " [--full|--smoke] [--out <json>]";
            if (sweep_flags)
                err << " [--cells|--store <path>] [--retry-failed] "
                       "[--cell-timeout <ms>] "
                       "[--isolation in_process|process] "
                       "[--workers <n>] [--cell-hard-timeout <ms>] "
                       "[--inject-abort <n>] [--daemon <socket>] "
                       "[--merge <out> <in...>]";
            err << "\n";
            return std::nullopt;
        }
        if (args.smoke)
            args.full = false; // CI size wins
        return args;
    }

    /** tryParse to stderr, exiting 2 on a bad command line. */
    static DriverArgs
    parse(int argc, char **argv, bool sweep_flags = true)
    {
        auto args = tryParse(argc, argv, std::cerr, sweep_flags);
        if (!args)
            std::exit(2);
        return *args;
    }

    /** "smoke" / "full" / "default" — for logs and JSON. */
    const char *
    modeName() const
    {
        return smoke ? "smoke" : (full ? "full" : "default");
    }
};

/** Forward the fault-handling flags into @p sweep: any of them
 *  switches it to FaultPolicy::isolate so one bad cell cannot poison
 *  the figure. */
inline void
applyFaultArgs(const DriverArgs &args, SweepSpec &sweep)
{
    const bool process = args.isolation == "process";
    if (!args.retry_failed && args.cell_timeout_ms <= 0.0 &&
        !process && args.inject_abort == 0)
        return;
    sweep.fault_policy = FaultPolicy::isolate;
    sweep.retry_failed = args.retry_failed;
    sweep.cell_timeout_ms = args.cell_timeout_ms;
    if (process) {
        sweep.isolation = IsolationMode::process;
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

/** What a sweep figure owns; runSweepFigure owns the rest. */
struct SweepFigure
{
    /** Printed before the sweep runs. */
    std::function<void(std::ostream &, const serve::Workload &)> banner;
    /** Prints the table of the data rows (quarantine markers dropped)
     *  and returns the summary fields --out writes after the rows. */
    std::function<SweepRow(std::ostream &, const serve::Workload &,
                           const std::vector<SweepRow> &)>
        table;
    /** Writes one data row's --out "rows" entries; unset writes the
     *  row's fields verbatim, in field order. */
    std::function<void(JsonWriter &, const SweepRow &)> out_row = nullptr;
};

/** Every field of @p row as a JSON field, in field order. */
inline void
writeFields(JsonWriter &json, const SweepRow &row)
{
    for (const auto &[name, value] : row.fields())
        std::visit([&](const auto &v) { json.field(name, v); }, value);
}

using Stat = double (*)(const std::vector<double> &);

/** @p stat of @p xs as table text; "n/a" for an empty set (every cell
 *  behind it quarantined). */
inline std::string
statText(Stat stat, const std::vector<double> &xs)
{
    return xs.empty() ? "n/a" : AsciiTable::num(stat(xs), 4);
}

/** Sets summary field @p name to @p stat of @p xs; leaves it out for
 *  an empty set. */
inline void
setStat(SweepRow &summary, const char *name, Stat stat,
        const std::vector<double> &xs)
{
    if (!xs.empty())
        summary.set(name, stat(xs));
}

/**
 * The sweep-figure driver body. In order: parse the flags and run
 * --merge; build workload @p name for the mode and open the sink; run
 * the sweep locally under the fault flags or through
 * runSweepViaDaemon; hand the data rows to the figure; print the sweep
 * line; write --out as "bench", "mode", the workload's knobs, the rows
 * and the figure's summary. Returns the exit code.
 */
inline int
runSweepFigure(const std::string &name, const SweepFigure &figure,
               int argc, char **argv)
{
    const DriverArgs args = DriverArgs::parse(argc, argv);
    try {
        if (!args.merge_out.empty())
            return runStoreMergeCli(args.merge_inputs, args.merge_out,
                                    std::cout);
        serve::Workload wl =
            serve::WorkloadCatalog::builtin().build(name, args.modeName());
        figure.banner(std::cout, wl);
        std::unique_ptr<SweepSink> sink;
        if (!args.cells.empty())
            sink = store::makeSweepSink(args.cells, name);

        SweepReport report;
        if (!args.daemon.empty()) {
            // Same cells, evaluated server-side. Result lines are
            // checksum- and key-verified before they reach the sink.
            serve::DaemonClient client =
                serve::DaemonClient::connectUnix(args.daemon);
            serve::DaemonRunOptions options;
            options.workload = name;
            options.mode = args.modeName();
            if (args.isolation == "process")
                options.isolation = "process";
            report = serve::runSweepViaDaemon(client, wl.spec.cells(),
                                              options, sink.get());
        } else {
            applyFaultArgs(args, wl.spec);
            report = SweepRunner(std::move(wl.spec)).run(wl.fn, sink.get());
        }

        std::vector<SweepRow> rows;
        for (const SweepRow &row : report.rows)
            if (!row.has("quarantined"))
                rows.push_back(row);
        const SweepRow summary = figure.table(std::cout, wl, rows);

        if (sink || report.failed > 0) {
            std::cout << "sweep: " << report.cells << " cells, "
                      << report.executed << " executed, "
                      << report.skipped << " skipped";
            if (report.failed > 0)
                std::cout << ", " << report.failed << " quarantined";
            if (sink)
                std::cout << " -> " << args.cells;
            std::cout << "\n";
        }

        if (!args.out.empty()) {
            auto os = openJsonOut(args.out);
            JsonWriter json(os);
            json.beginObject();
            json.field("bench", name);
            json.field("mode", args.modeName());
            writeFields(json, wl.knobs);
            json.beginArray("rows");
            for (const SweepRow &row : rows) {
                if (figure.out_row) {
                    figure.out_row(json, row);
                    continue;
                }
                json.beginObject();
                writeFields(json, row);
                json.endObject();
            }
            json.endArray();
            writeFields(json, summary);
            json.endObject();
            std::cout << "wrote " << args.out << "\n";
        }
        return 0;
    } catch (const std::exception &e) {
        std::cerr << name << ": " << e.what() << "\n";
        return 1;
    }
}

} // namespace bench
} // namespace eftvqa

#endif // EFTVQA_BENCH_SWEEP_DRIVER_HPP
