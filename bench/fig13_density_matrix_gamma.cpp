/**
 * @file
 * Reproduces paper Fig 13: gamma(pQEC/NISQ) for physics and chemistry
 * Hamiltonians via noisy density-matrix VQE (the paper uses 8 and 12
 * qubits; the default here runs 8-qubit physics models plus shrunken
 * 8-qubit molecular surrogates to keep runtime laptop-friendly — pass
 * --full for 12-qubit Hamiltonians with the paper's term counts, or
 * --smoke for the CI-sized subset; --out <json> emits the rows;
 * --cells <json> keeps a resumable cell store).
 *
 * One SweepSpec: Ising/Heisenberg over the paper's coupling axis plus
 * the molecule benchmark cells, each cell the canonical three-regime
 * (ideal / NISQ / pQEC density matrix) experiment run through its
 * ExperimentSession.
 */

#include <iostream>
#include <memory>
#include <optional>

#include "ansatz/ansatz.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "driver_args.hpp"
#include "ham/heisenberg.hpp"
#include "ham/ising.hpp"
#include "ham/molecule.hpp"
#include "noise/noise_model.hpp"
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
    const int n_physics = args.full ? 12 : 8;
    const int n_chem = args.full ? 12 : 8;
    const size_t evals = args.smoke ? 60 : (args.full ? 400 : 150);
    const size_t attempts = args.full ? 3 : 2;

    std::cout << "=== Fig 13: gamma(pQEC/NISQ), density-matrix VQE ===\n";
    std::cout << "(paper 8/12-qubit averages: Ising 3.45x, Heisenberg "
                 "3.0x, H2O 19.5x, H6 2.69x,\n LiH 1.61x — pQEC always "
                 ">= NISQ)\n\n";

    SweepSpec sweep;
    sweep.name = "fig13_density_matrix_gamma";
    if (args.smoke) {
        // CI-sized subset: one physics case per family.
        sweep.families = {HamFamily::Ising, HamFamily::Heisenberg};
        sweep.couplings = {1.0};
    } else {
        // SweepSpec shares one coupling axis across families; the
        // paper's Ising and Heisenberg sweeps use the same J list,
        // which this guard pins — if the factories ever diverge, this
        // driver must grow a per-family axis rather than silently
        // sweeping Heisenberg over the Ising couplings.
        if (isingCouplings() != heisenbergCouplings()) {
            std::cerr << "fig13: isingCouplings() != "
                         "heisenbergCouplings(); split the coupling "
                         "axis per family\n";
            return 1;
        }
        sweep.families = {HamFamily::Ising, HamFamily::Heisenberg,
                          HamFamily::Molecule};
        sweep.couplings = isingCouplings();
        for (auto spec : paperMoleculeBenchmarks()) {
            spec.n_qubits = n_chem;
            sweep.molecules.push_back(spec);
        }
    }
    sweep.sizes = {n_physics};
    sweep.ansatz = [](int n) { return fcheAnsatz(n, 1); };
    sweep.regimes = {RegimeSpec::ideal(), RegimeSpec::nisqDensityMatrix(),
                     RegimeSpec::pqecDensityMatrix()};
    // The optimizer budget changes the rows but lives in the cell
    // function, and the per-case seed walks the cell index; both must
    // reach the cell key (the seed via genetic.seed below) or a cell
    // store written in one mode would wrongly resume another.
    sweep.key_salt = evals * 8 + attempts;
    sweep.customize = [](const SweepPoint &pt, ExperimentSpec &spec) {
        // 101-per-cell stride in serial cell order — the exact seed
        // sequence of the pre-sweep driver loop. genetic.seed is
        // unused by the continuous-VQE entry points, so this is purely
        // a keyed carrier the cell function reads back.
        spec.genetic.seed =
            555 + 101 * (static_cast<uint64_t>(pt.index) + 1);
    };

    // Optimal Parameter Resilience (paper section 2.1): parameters that
    // minimize the noiseless loss are near-optimal under noise, so each
    // cell is optimized to convergence on the cheap statevector backend
    // and then *refined* under each regime's density-matrix noise. This
    // keeps gamma a statement about noise, not optimizer budget.
    const auto cell_fn = [evals, attempts](const SweepCell &cell,
                                           ExperimentSession &session) {
        std::string name;
        switch (cell.point.family) {
          case HamFamily::Ising:
            name = "Ising(J=" + AsciiTable::num(cell.point.coupling, 3) +
                   ")";
            break;
          case HamFamily::Heisenberg:
            name = "Heisenberg(J=" +
                   AsciiTable::num(cell.point.coupling, 3) + ")";
            break;
          case HamFamily::Molecule:
            name = cell.point.molecule->name();
            break;
        }
        const uint64_t case_seed = session.spec().genetic.seed;

        NelderMeadOptimizer opt(0.6);
        const double e0 = session.hamiltonian().groundStateEnergy();
        const auto ideal = session.minimizeBestOf(
            session.spec().regime("ideal"), opt, 4 * evals, attempts + 1,
            case_seed);
        const auto nisq = session.minimize(session.spec().regime("nisq"),
                                           opt, ideal.params, evals);
        const auto pqec = session.minimize(session.spec().regime("pqec"),
                                           opt, ideal.params, evals);
        const double gamma =
            relativeImprovement(e0, pqec.energy, nisq.energy);
        SweepRow row;
        row.set("benchmark", name);
        row.set("e0", e0);
        row.set("e_nisq", nisq.energy);
        row.set("e_pqec", pqec.energy);
        row.set("gamma", gamma);
        return row;
    };

    bench::applyFaultArgs(args, sweep);
    SweepRunner runner(std::move(sweep));
    std::unique_ptr<SweepSink> cells;
    if (!args.cells.empty())
        cells = store::makeSweepSink(args.cells, "fig13_density_matrix_gamma");
    const SweepReport report =
        runner.run(cell_fn, cells.get());

    AsciiTable table({"Benchmark", "E0", "E(NISQ)", "E(pQEC)", "gamma"});
    std::vector<double> gammas;
    for (const SweepRow &row : report.rows) {
        if (row.has("quarantined"))
            continue; // isolate-mode marker, not a data row
        gammas.push_back(row.num("gamma"));
        table.addRow({row.str("benchmark"), AsciiTable::num(row.num("e0"), 5),
                      AsciiTable::num(row.num("e_nisq"), 5),
                      AsciiTable::num(row.num("e_pqec"), 5),
                      AsciiTable::num(row.num("gamma"), 4)});
    }

    table.print(std::cout);
    std::cout << "\ngamma average = " << AsciiTable::num(mean(gammas), 4)
              << ", max = " << AsciiTable::num(maxOf(gammas), 4) << "\n";

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
        json.field("bench", "fig13_density_matrix_gamma");
        json.field("mode", args.modeName());
        json.field("evals", evals);
        json.beginArray("rows");
        for (const SweepRow &row : report.rows) {
            if (row.has("quarantined"))
                continue;
            json.beginObject();
            json.field("benchmark", row.str("benchmark"));
            json.field("e0", row.num("e0"));
            json.field("e_nisq", row.num("e_nisq"));
            json.field("e_pqec", row.num("e_pqec"));
            json.field("gamma", row.num("gamma"));
            json.endObject();
        }
        json.endArray();
        json.field("gamma_avg", mean(gammas));
        json.field("gamma_max", maxOf(gammas));
        json.endObject();
        std::cout << "wrote " << args.out << "\n";
    }
    return 0;
}
