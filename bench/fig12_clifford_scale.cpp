/**
 * @file
 * Reproduces paper Fig 12: relative improvement gamma(pQEC/NISQ) for
 * Ising and Heisenberg models at scale via Clifford-state VQE with the
 * genetic optimizer (stabilizer backend, trajectory Pauli noise).
 *
 * The whole figure is one SweepSpec (vqa/sweep.hpp): family x size x
 * coupling grid, per-cell seed/eval-regime overrides, and a cell
 * function running the paper's GA + unbiased-rescore protocol through
 * each cell's ExperimentSession. All cells share one sweep-level
 * energy cache, so identical (Hamiltonian, regime, circuit) work is
 * paid once across the grid.
 *
 * Default sweep is laptop-sized (16..48 qubits, reduced GA budget);
 * pass --full for the paper's 16..100 range with a larger budget, or
 * --smoke for the CI-sized single case. --out <json> emits the rows
 * machine-readably; --cells <json> keeps a resumable cell store
 * (rerunning skips cells already present); --daemon <socket> ships the
 * cells to a running vqad instead of evaluating locally.
 *
 * The sweep itself — grid, GA budgets, regimes, seeds, cell protocol —
 * lives in serve::fig12Workload (src/serve/workloads.cpp) so this
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

    serve::Workload wl = serve::fig12Workload(args.modeName());
    const size_t trajectories =
        static_cast<size_t>(wl.knobs.at("trajectories"));

    std::cout << "=== Fig 12: gamma(pQEC/NISQ), Clifford-state VQE at "
                 "scale ===\n";
    std::cout << "(paper: Ising avg 6.83x max 257x; Heisenberg avg "
                 "12.59x max 189x; pQEC\n always wins and the advantage "
                 "grows with size)\n\n";

    std::unique_ptr<SweepSink> cells;
    if (!args.cells.empty())
        cells = store::makeSweepSink(args.cells, "fig12_clifford_scale");

    SweepReport report;
    if (!args.daemon.empty()) {
        // Daemon mode: same cells, evaluated server-side. Result lines
        // are checksum- and key-verified before they reach the sink.
        serve::DaemonClient client =
            serve::DaemonClient::connectUnix(args.daemon);
        serve::DaemonRunOptions options;
        options.workload = "fig12_clifford_scale";
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

    size_t r = 0;
    for (const char *family : {"ising", "heisenberg"}) {
        std::cout << "-- " << family << " --\n";
        AsciiTable table({"Qubits", "J", "E0(ref)", "E(NISQ)", "E(pQEC)",
                          "gamma"});
        std::vector<double> gammas;
        for (; r < report.rows.size(); ++r) {
            const SweepRow &row = report.rows[r];
            if (row.has("quarantined"))
                continue; // isolate-mode marker, not a data row
            if (row.str("family") != family)
                break;
            gammas.push_back(row.num("gamma"));
            table.addRow({AsciiTable::num(row.integer("qubits")),
                          AsciiTable::num(row.num("j"), 3),
                          AsciiTable::num(row.num("e0"), 5),
                          AsciiTable::num(row.num("e_nisq"), 5),
                          AsciiTable::num(row.num("e_pqec"), 5),
                          AsciiTable::num(row.num("gamma"), 4)});
        }
        table.print(std::cout);
        std::cout << "gamma average = " << AsciiTable::num(mean(gammas), 4)
                  << ", max = " << AsciiTable::num(maxOf(gammas), 4)
                  << "\n\n";
    }

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
        json.field("bench", "fig12_clifford_scale");
        json.field("mode", args.modeName());
        json.field("trajectories", trajectories);
        json.beginArray("rows");
        for (const SweepRow &row : report.rows) {
            if (row.has("quarantined"))
                continue;
            json.beginObject();
            json.field("family", row.str("family"));
            json.field("qubits", row.integer("qubits"));
            json.field("j", row.num("j"));
            json.field("e0", row.num("e0"));
            json.field("e_nisq", row.num("e_nisq"));
            json.field("e_pqec", row.num("e_pqec"));
            json.field("gamma", row.num("gamma"));
            json.endObject();
        }
        json.endArray();
        json.endObject();
        std::cout << "wrote " << args.out << "\n";
    }
    return 0;
}
