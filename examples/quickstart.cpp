/**
 * @file
 * Quickstart: the canonical entry point is vqa::ExperimentSession — a
 * declarative ExperimentSpec (problem + ansatz + execution regimes) and
 * a session that owns engines, the cross-engine energy cache and async
 * evaluation. This runs a small VQE for a transverse-field Ising chain
 * under three regimes — ideal, NISQ, and pQEC (the paper's EFT-VQA
 * proposal) — and reports the relative improvement gamma; a closing
 * section fans a coupling grid across sessions with vqa::SweepSpec,
 * the way the figure drivers sweep.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cmath>
#include <iostream>

#include "ansatz/ansatz.hpp"
#include "ham/ising.hpp"
#include "noise/noise_model.hpp"
#include "sim/backend.hpp"
#include "vqa/sweep.hpp"

using namespace eftvqa;

int
main()
{
    // 1. Problem: a 6-qubit Ising chain at J = 1.
    const int n = 6;
    const auto ham = isingHamiltonian(n, 1.0);
    const double e0 = ham.groundStateEnergy();
    std::cout << "Ising chain, n = " << n << ", exact ground energy E0 = "
              << e0 << "\n";

    // 2. Ansatz: depth-1 fully-connected hardware-efficient circuit.
    const auto ansatz = fcheAnsatz(n, 1);
    std::cout << "FCHE ansatz: " << ansatz.nGates() << " gates, "
              << ansatz.nParameters() << " parameters\n\n";

    // 3. The whole experiment is one declarative spec: the problem plus
    //    a named RegimeSpec per execution model (backend kind + noise).
    //    nisqVsPqecDensityMatrix() is the paper's three-regime preset;
    //    ad-hoc specs just list their own RegimeSpecs.
    ExperimentSession session(
        ExperimentSpec::nisqVsPqecDensityMatrix(ham, ansatz));
    const auto &ideal_regime = session.spec().regime("ideal");
    const auto &nisq_regime = session.spec().regime("nisq");
    const auto &pqec_regime = session.spec().regime("pqec");

    // Auto dispatch in action: the bound FCHE circuit is non-Clifford,
    // so the ideal regime lands on the exact statevector backend; a
    // pi/2-restricted circuit would land on the stabilizer tableau.
    const auto probe = ansatz.bind(
        std::vector<double>(ansatz.nParameters(), 0.3));
    std::cout << "Auto dispatch: generic angles -> "
              << sim::backendKindName(sim::resolveBackendKind(
                     sim::BackendKind::Auto, probe, nullptr))
              << ", Clifford angles -> "
              << sim::backendKindName(sim::resolveBackendKind(
                     sim::BackendKind::Auto,
                     ansatz.bind(std::vector<double>(
                         ansatz.nParameters(), M_PI / 2)),
                     nullptr))
              << ", noisy -> "
              << sim::backendKindName(sim::resolveBackendKind(
                     sim::BackendKind::Auto, probe,
                     &*nisq_regime.noise))
              << "\n\n";

    // 4. Optimize under each regime through the session. Engines are
    //    built lazily, memoized per regime, and share one session-level
    //    energy cache keyed by (Hamiltonian, regime, circuit).
    NelderMeadOptimizer opt(0.6);
    const size_t evals = 300;

    const auto ideal =
        session.minimizeBestOf(ideal_regime, opt, evals, 2, 42);
    std::cout << "ideal  energy: " << ideal.energy << "\n";

    const auto nisq =
        session.minimizeBestOf(nisq_regime, opt, evals, 2, 42);
    std::cout << "NISQ   energy: " << nisq.energy
              << "   (CX err 1e-3, meas err 1e-2, relaxation)\n";

    const auto pqec =
        session.minimizeBestOf(pqec_regime, opt, evals, 2, 42);
    std::cout << "pQEC   energy: " << pqec.energy
              << "   (Cliffords ~1e-7, injected Rz 0.76e-3)\n\n";

    // 5. Async evaluation: submit() returns futures; per regime the
    //    work runs in submission order (bit-identical to synchronous
    //    energy() calls), different regimes overlap. Re-scoring both
    //    winners here hits the session cache — these energies were
    //    already computed during the optimization above.
    auto nisq_future = session.submit(nisq_regime,
                                      ansatz.bind(nisq.params));
    auto pqec_future = session.submit(pqec_regime,
                                      ansatz.bind(pqec.params));
    const double e_nisq = nisq_future.get();
    const double e_pqec = pqec_future.get();
    std::cout << "async re-score: NISQ " << e_nisq << ", pQEC " << e_pqec
              << "  (cache hits: " << session.cache()->hits() << ")\n";

    // 6. The paper's headline metric.
    std::cout << "gamma(pQEC/NISQ) = "
              << relativeImprovement(e0, pqec.energy, nisq.energy)
              << "  (>1 means pQEC closes more of the gap to E0)\n\n";

    // 7. Grids of experiments are sweeps: a SweepSpec describes the
    //    (family x size x coupling) axes, SweepRunner expands it into
    //    cells and drives each through its own session — all cells
    //    sharing one energy cache — and rows stream back in serial
    //    cell order (a sweep sink would additionally make the run
    //    resumable: the fig drivers' --cells/--store flag, backed by
    //    the append-only binary SweepStore of src/store/, with
    //    `vqastore export`/`import` converting to and from JSON).
    //    This is how
    //    fig12–15 are written; here the cell function just re-runs the
    //    ideal VQE per coupling. For hostile cells, FaultPolicy::
    //    isolate quarantines failures instead of aborting, and
    //    IsolationMode::process runs each cell in a forked worker
    //    under a supervisor (vqa/procpool.hpp) so even a segfault
    //    costs one cell, not the sweep — the drivers expose both as
    //    --retry-failed and --isolation process, and `--merge`
    //    combines partial cell stores from separate runs.
    SweepSpec sweep;
    sweep.name = "quickstart";
    sweep.families = {HamFamily::Ising};
    sweep.sizes = {n};
    sweep.couplings = {0.25, 0.5, 1.0};
    sweep.ansatz = [](int nq) { return fcheAnsatz(nq, 1); };
    sweep.regimes = {RegimeSpec::ideal()};
    SweepRunner runner(std::move(sweep));
    const SweepReport report = runner.run(
        [evals](const SweepCell &cell, ExperimentSession &s) {
            NelderMeadOptimizer cell_opt(0.6);
            const auto best = s.minimizeBestOf(
                s.spec().regime("ideal"), cell_opt, evals, 2, 42);
            SweepRow row;
            row.set("j", cell.point.coupling);
            row.set("e_vqe", best.energy);
            row.set("e0", s.hamiltonian().groundStateEnergy());
            return row;
        });
    std::cout << "sweep over J (" << report.cells
              << " cells, ideal VQE per coupling):\n";
    for (const SweepRow &row : report.rows)
        std::cout << "  J = " << row.num("j")
                  << ": E(VQE) = " << row.num("e_vqe")
                  << "  (E0 = " << row.num("e0") << ")\n";
    return 0;
}
