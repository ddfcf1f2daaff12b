/**
 * @file
 * Reproduces paper Fig 15: VarSaw measurement-error mitigation helps
 * VQE converge to lower energies under both NISQ and pQEC execution
 * (paper: 12-qubit J=1 Ising and Heisenberg; default here is 8 qubits
 * for runtime, --full for 12, --smoke for a CI-sized 6; --out <json>
 * emits the rows; --cells <json> keeps a resumable cell store).
 *
 * One SweepSpec over the two families; within each cell the plain and
 * mitigated optimizers share the regime engines — and the sweep-level
 * energy cache — so the warm-start evaluations are computed once.
 */

#include <iostream>
#include <memory>
#include <optional>

#include "ansatz/ansatz.hpp"
#include "common/table.hpp"
#include "driver_args.hpp"
#include "ham/heisenberg.hpp"
#include "ham/ising.hpp"
#include "mitigation/varsaw.hpp"
#include "noise/noise_model.hpp"
#include "store/sink.hpp"
#include "vqa/sweep.hpp"

using namespace eftvqa;

namespace {

/**
 * Energy evaluator with VarSaw mitigation folded into each call: the
 * estimation engine's batched term expectations already carry the
 * analytic readout damping, which VarSaw then unbiases term-by-term.
 * Evaluates through the session's regime engine (shared cache).
 */
EnergyEvaluator
mitigatedEvaluator(ExperimentSession &session, const RegimeSpec &regime)
{
    const auto cal = ReadoutCalibration::uniform(
        session.hamiltonian().nQubits(), regime.noise->dm.meas_flip);
    return [&session, regime, cal](const Circuit &bound) {
        return mitigateDampedEnergy(
            session.hamiltonian(),
            session.termExpectations(regime, bound), cal);
    };
}

} // namespace

int
main(int argc, char **argv)
{
    const auto args = bench::DriverArgs::parse(argc, argv);
    if (!args.merge_out.empty())
        return runStoreMergeCli(args.merge_inputs, args.merge_out,
                                std::cout);
    const int n = args.smoke ? 6 : (args.full ? 12 : 8);
    const size_t evals = args.smoke ? 80 : (args.full ? 400 : 180);

    std::cout << "=== Fig 15: VQE convergence with VarSaw (J=1, " << n
              << " qubits) ===\n";
    std::cout << "(paper: VarSaw lowers the converged energy for both "
                 "NISQ and pQEC)\n\n";

    SweepSpec sweep;
    sweep.name = "fig15_varsaw";
    sweep.families = {HamFamily::Ising, HamFamily::Heisenberg};
    sweep.sizes = {n};
    sweep.couplings = {1.0};
    sweep.ansatz = [](int nq) { return fcheAnsatz(nq, 1); };
    sweep.regimes = {RegimeSpec::ideal(), RegimeSpec::nisqDensityMatrix(),
                     RegimeSpec::pqecDensityMatrix()};
    // The optimizer budget lives in the cell function: salt it into
    // the cell keys so a --cells store never resumes across modes.
    sweep.key_salt = evals;

    // Warm-start both regimes from the converged noiseless optimum
    // (OPR, paper section 2.1) so convergence differences reflect
    // mitigation, not optimizer budget. One cell = one family; both
    // regimes' plain and mitigated runs land in the cell's row.
    const auto cell_fn = [evals](const SweepCell &cell,
                                 ExperimentSession &session) {
        NelderMeadOptimizer opt(0.6);
        const double e0 = session.hamiltonian().groundStateEnergy();
        const auto ideal = session.minimizeBestOf(
            session.spec().regime("ideal"), opt, 4 * evals, 3, 99);
        SweepRow row;
        row.set("family", hamFamilyName(cell.point.family));
        row.set("e0", e0);
        for (const bool pqec : {false, true}) {
            const RegimeSpec &regime =
                session.spec().regime(pqec ? "pqec" : "nisq");
            const auto plain =
                session.minimize(regime, opt, ideal.params, evals);
            const auto mitigated =
                runVqe(session.spec().ansatz,
                       mitigatedEvaluator(session, regime), opt,
                       ideal.params, evals);
            row.set(pqec ? "e_plain_pqec" : "e_plain_nisq",
                    plain.energy);
            row.set(pqec ? "e_varsaw_pqec" : "e_varsaw_nisq",
                    mitigated.energy);
        }
        return row;
    };

    bench::applyFaultArgs(args, sweep);
    SweepRunner runner(std::move(sweep));
    std::unique_ptr<SweepSink> cells;
    if (!args.cells.empty())
        cells = store::makeSweepSink(args.cells, "fig15_varsaw");
    const SweepReport report =
        runner.run(cell_fn, cells.get());

    AsciiTable table({"Benchmark", "Regime", "E (plain)", "E (VarSaw)",
                      "E0"});
    for (const SweepRow &row : report.rows) {
        if (row.has("quarantined"))
            continue; // isolate-mode marker, not a data row
        for (const bool pqec : {false, true}) {
            table.addRow(
                {row.str("family"), pqec ? "pQEC" : "NISQ",
                 AsciiTable::num(
                     row.num(pqec ? "e_plain_pqec" : "e_plain_nisq"), 5),
                 AsciiTable::num(
                     row.num(pqec ? "e_varsaw_pqec" : "e_varsaw_nisq"),
                     5),
                 AsciiTable::num(row.num("e0"), 5)});
        }
    }
    table.print(std::cout);

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
        json.field("bench", "fig15_varsaw");
        json.field("mode", args.modeName());
        json.field("qubits", n);
        json.beginArray("rows");
        for (const SweepRow &row : report.rows) {
            if (row.has("quarantined"))
                continue;
            for (const bool pqec : {false, true}) {
                json.beginObject();
                json.field("family", row.str("family"));
                json.field("regime", pqec ? "pQEC" : "NISQ");
                json.field("e_plain", row.num(pqec ? "e_plain_pqec"
                                                   : "e_plain_nisq"));
                json.field("e_varsaw", row.num(pqec ? "e_varsaw_pqec"
                                                    : "e_varsaw_nisq"));
                json.field("e0", row.num("e0"));
                json.endObject();
            }
        }
        json.endArray();
        json.endObject();
        std::cout << "wrote " << args.out << "\n";
    }
    return 0;
}
