/**
 * @file
 * Reproduces paper Fig 14: relative improvement of blocked_all_to_all
 * over FCHE under pQEC execution, plus the noise-free ideal-energy
 * ratio that tracks relative expressibility.
 *
 * One SweepSpec over (family, size, coupling); each cell runs both
 * ansaetze through its session, so the reference GAs and the winners'
 * ideal energies share one ideal-tableau engine — and all cells share
 * the sweep-level energy cache. --smoke shrinks to the 16-qubit cases,
 * --full extends the sweep to 32 qubits with a larger GA budget;
 * --out <json> emits the rows; --cells <json> keeps a resumable cell
 * store; --daemon <socket> ships the cells to a running vqad instead
 * of evaluating locally.
 *
 * The sweep itself — grid, GA budgets, regimes, seeds, cell protocol —
 * lives in serve::fig14Workload (src/serve/workloads.cpp) so this
 * driver and the daemon serve literally the same cells.
 */

#include <iostream>
#include <memory>
#include <optional>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "driver_args.hpp"
#include "serve/client.hpp"
#include "serve/workloads.hpp"
#include "store/sink.hpp"
#include "vqa/sweep.hpp"

using namespace eftvqa;

int
main(int argc, char **argv)
{
    const auto args = bench::DriverArgs::parse(argc, argv);
    if (!args.merge_out.empty())
        return runStoreMergeCli(args.merge_inputs, args.merge_out,
                                std::cout);

    std::cout << "=== Fig 14: blocked_all_to_all vs FCHE under pQEC ===\n";
    std::cout << "(paper: Ising avg 1.35x; Heisenberg avg 0.49x, dragged "
                 "down by J=1 where the\n blocked structure lacks "
                 "expressibility; ideal-energy ratio ~1 elsewhere)\n\n";

    serve::Workload wl = serve::fig14Workload(args.modeName());

    std::unique_ptr<SweepSink> cells;
    if (!args.cells.empty())
        cells = store::makeSweepSink(args.cells, "fig14_blocked_vs_fche");

    SweepReport report;
    if (!args.daemon.empty()) {
        // Daemon mode: same cells, evaluated server-side. Result lines
        // are checksum- and key-verified before they reach the sink.
        serve::DaemonClient client =
            serve::DaemonClient::connectUnix(args.daemon);
        serve::DaemonRunOptions options;
        options.workload = "fig14_blocked_vs_fche";
        options.mode = args.modeName();
        if (args.isolation == "process")
            options.isolation = "process";
        report = serve::runSweepViaDaemon(client, wl.spec.cells(),
                                          options,
                                          cells.get());
    } else {
        bench::applyFaultArgs(args, wl.spec);
        SweepRunner runner(std::move(wl.spec));
        report = runner.run(wl.fn, cells.get());
    }

    AsciiTable table({"Benchmark", "Qubits", "gamma(blocked/FCHE)",
                      "ideal ratio E_b/E_f"});
    std::vector<double> ising_gammas, heis_gammas;
    for (const SweepRow &row : report.rows) {
        if (row.has("quarantined"))
            continue; // isolate-mode marker, not a data row
        const bool ising = row.str("family") == "ising";
        (ising ? ising_gammas : heis_gammas).push_back(row.num("gamma"));
        table.addRow({row.str("family") + "(J=" +
                          AsciiTable::num(row.num("j"), 3) + ")",
                      AsciiTable::num(row.integer("qubits")),
                      AsciiTable::num(row.num("gamma"), 4),
                      AsciiTable::num(row.num("ideal_ratio"), 4)});
    }
    table.print(std::cout);
    std::cout << "\nIsing gamma average = "
              << AsciiTable::num(mean(ising_gammas), 4)
              << " (paper 1.35x); Heisenberg gamma average = "
              << AsciiTable::num(mean(heis_gammas), 4)
              << " (paper 0.49x)\n";
    std::cout << "Execution-time reduction from blocked (Table 2) holds "
                 "regardless: >2x fewer cycles.\n";

    if (cells) {
        std::cout << "sweep: " << report.cells << " cells, "
                  << report.executed << " executed, " << report.skipped
                  << " skipped";
        if (report.failed > 0)
            std::cout << ", " << report.failed << " quarantined";
        std::cout << " -> " << args.cells << "\n";
    }

    if (!args.out.empty()) {
        auto os = bench::openJsonOut(args.out);
        bench::JsonWriter json(os);
        json.beginObject();
        json.field("bench", "fig14_blocked_vs_fche");
        json.field("mode", args.modeName());
        json.beginArray("rows");
        for (const SweepRow &row : report.rows) {
            if (row.has("quarantined"))
                continue;
            json.beginObject();
            json.field("family", row.str("family"));
            json.field("qubits", row.integer("qubits"));
            json.field("j", row.num("j"));
            json.field("gamma", row.num("gamma"));
            json.field("ideal_ratio", row.num("ideal_ratio"));
            json.endObject();
        }
        json.endArray();
        json.field("ising_gamma_avg", mean(ising_gammas));
        json.field("heisenberg_gamma_avg", mean(heis_gammas));
        json.endObject();
        std::cout << "wrote " << args.out << "\n";
    }
    return 0;
}
