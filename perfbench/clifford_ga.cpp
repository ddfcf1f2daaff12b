/**
 * @file
 * clifford_ga: fig12's default grid (Ising and Heisenberg at 16, 32 and
 * 48 qubits, J in {0.25, 1}) through SweepRunner into a binary store.
 * Each cell follows fig12's protocol: cliffordVqe under the NISQ and
 * pQEC tableau regimes, cliffordReference, and a fresh-sample re-score,
 * at fig12's default budgets. No density-matrix work: the time goes to
 * the stabilizer trajectory farm and energies() batching, and the GA
 * gives the shared energy cache its real hit rate.
 */

#include <algorithm>
#include <atomic>
#include <mutex>

#include "ansatz/ansatz.hpp"
#include "batch.hpp"
#include "layers.hpp"
#include "vqa/metrics.hpp"

namespace eftbench {

using namespace eftvqa;

namespace {

struct CellResult
{
    CliffordVqeResult nisq, pqec;
};

struct Budget
{
    size_t population = 12;
    size_t generations = 6;
    size_t trajectories = 400; ///< re-score; the GA runs at 1/8 of it
};

SweepSpec
makeSpec(const Run &run, const Budget &b)
{
    SweepSpec s;
    s.name = "perfbench_clifford_ga";
    s.families = {HamFamily::Ising, HamFamily::Heisenberg};
    // Largest cells first, so the round does not end on a 48-qubit
    // cell that started late on one worker while the other idles.
    s.sizes = run.tiny ? std::vector<int>{16} : std::vector<int>{48, 32, 16};
    s.couplings = run.tiny ? std::vector<double>{1.0}
                           : std::vector<double>{0.25, 1.0};
    s.ansatz = [](int n) { return fcheAnsatz(n, 1); };
    s.genetic.population = b.population;
    s.genetic.generations = b.generations;
    s.regimes = {RegimeSpec::nisqTableau(b.trajectories / 8, mix(run.seed, 1)),
                 RegimeSpec::pqecTableau(b.trajectories / 8, mix(run.seed, 2))};
    s.cell_workers = run.pinned.cell_workers;
    s.executor_threads = run.pinned.executor_threads;
    const uint64_t seed = run.seed;
    const size_t traj = b.trajectories;
    s.customize = [seed, traj](const SweepPoint &pt, ExperimentSpec &spec) {
        spec.genetic.seed = mix(seed, 2000 + pt.index);
        spec.regimes.push_back(
            RegimeSpec::nisqTableau(traj, mix(seed, 3000 + pt.qubits))
                .named("nisq-eval"));
        spec.regimes.push_back(
            RegimeSpec::pqecTableau(traj, mix(seed, 4000 + pt.qubits))
                .named("pqec-eval"));
    };
    return s;
}

/** The regime cliffordVqe runs its GA under: the trajectory stream is
 *  re-seeded from the GA seed (ExperimentSession::cliffordVqe). */
RegimeSpec
gaRegime(const ExperimentSpec &spec, const char *name)
{
    RegimeSpec ga = spec.regime(name).named(std::string(name) + "#ga");
    ga.noise->seed = spec.genetic.seed ^ 0xA5A5A5A5ull;
    return ga;
}

} // namespace

void
runCliffordGa(Run &run)
{
    const Budget budget = run.tiny ? Budget{6, 1, 64} : Budget{};

    BatchRounds batch;
    batch.name = "clifford_ga";
    batch.spec = [&run, budget] { return makeSpec(run, budget); };
    const size_t n_cells = batch.spec().cellCount();
    std::vector<CellResult> first;
    size_t energies_per_round = 0;
    std::vector<uint64_t> rescored; // contentHash of each re-scored circuit
    std::mutex rescored_mutex;

    runRounds(run, 3, [&](size_t r, bool traced) {
        rescored.clear();
        std::vector<CellResult> results(n_cells);
        std::atomic<size_t> energies{0};
        const auto fn = [&](const SweepCell &cell, ExperimentSession &session,
                            long long sweep_span) {
            const auto c0 = Clock::now();
            const uint64_t request = cell.point.index + 1;
            Span span("vqa.cell", request, sweep_span);
            const auto &spec = session.spec();
            CellResult res;
            for (auto [name, out] : {std::pair{"nisq", &res.nisq},
                                     std::pair{"pqec", &res.pqec}}) {
                *out = timed(run.samples, "vqa.ga", "vqa.ga_ms", request, [&] {
                    return session.cliffordVqe(spec.regime(name));
                });
                if (traced)
                    run.samples.add("vqa.evals_per_request",
                                    static_cast<double>(out->evaluations));
            }
            const double ref = timed(run.samples, "vqa.ga", "vqa.ga_ms", request,
                                         [&] {
                                             return session.cliffordReference();
                                         });
            const double e0 =
                std::min({ref, res.nisq.ideal_energy, res.pqec.ideal_energy});
            // fig12's unbiased re-score: fresh trajectory samples.
            const auto rescore = [&](const char *regime,
                                     const CliffordVqeResult &ga) {
                const Circuit bound =
                    spec.ansatz.bind(cliffordAngles(ga.angles));
                if (traced) {
                    std::lock_guard<std::mutex> lock(rescored_mutex);
                    rescored.push_back(bound.contentHash());
                }
                return timed(run.samples, "vqa.energy", "vqa.energy_ms", request,
                                 [&] {
                                     return session.energy(spec.regime(regime),
                                                           bound);
                                 });
            };
            const double e_pqec = rescore("pqec-eval", res.pqec);
            const double e_nisq = rescore("nisq-eval", res.nisq);
            energies.fetch_add(res.nisq.evaluations + res.pqec.evaluations + 2,
                               std::memory_order_relaxed);
            SweepRow row;
            row.set("family", hamFamilyName(cell.point.family));
            row.set("qubits", cell.point.qubits);
            row.set("j", cell.point.coupling);
            row.set("e0", e0);
            row.set("e_nisq", e_nisq);
            row.set("e_pqec", e_pqec);
            row.set("gamma",
                    relativeImprovement(e0, e_pqec, e_nisq,
                                        2.0 / static_cast<double>(
                                                  budget.trajectories)));
            results[cell.point.index] = std::move(res);
            if (traced)
                run.samples.add("vqa.cell_ms", msSince(c0));
            return row;
        };
        if (batch.round(run, r, traced, fn) && r == 0)
            first = std::move(results);
        energies_per_round = energies.load();
        if (traced)
            addDistinctFraction(run.samples, rescored);
    });

    // After the rounds, as in dm_vqe, so the first round runs in a
    // fresh process.
    checkCliffordProbes(run);

    // Per-request checks on round 0 (later rounds are bit-identical to
    // it): each GA's energy and ideal energy equal re-evaluations of its
    // angles in a fresh session.
    for (size_t i = 0; i < first.size(); ++i) {
        const SweepCell &cell = batch.cells[i];
        ExperimentSession fresh(cell.experiment);
        const auto &spec = fresh.spec();
        for (auto [name, ga] : {std::pair{"nisq", &first[i].nisq},
                                std::pair{"pqec", &first[i].pqec}}) {
            const Circuit bound = spec.ansatz.bind(cliffordAngles(ga->angles));
            run.check(fresh.energy(gaRegime(spec, name), bound) == ga->energy,
                      cell.label + ": " + name + " GA energy re-evaluates");
            run.check(fresh.energy(RegimeSpec::idealTableau(spec.genetic.seed),
                                   bound) == ga->ideal_energy,
                      cell.label + ": " + name + " ideal energy re-evaluates");
        }
    }

    batch.metrics(run, static_cast<double>(energies_per_round));
    if (!run.trace)
        return;

    // Layer re-drive of the GA winners through the tableau backend; the
    // re-drive must reproduce the session's energies bit for bit.
    for (size_t i = 0; i < first.size(); ++i) {
        const auto &spec = batch.cells[i].experiment;
        for (auto [name, ga] : {std::pair{"nisq", &first[i].nisq},
                                std::pair{"pqec", &first[i].pqec}}) {
            const Circuit bound = spec.ansatz.bind(cliffordAngles(ga->angles));
            run.check(redriveTableau(run.samples, spec.hamiltonian, bound,
                                     gaRegime(spec, name)) == ga->energy,
                      batch.cells[i].label + ": tableau re-drive reproduces "
                                             "the GA energy");
            run.check(redriveTableau(run.samples, spec.hamiltonian, bound,
                                     RegimeSpec::idealTableau(
                                         spec.genetic.seed)) ==
                          ga->ideal_energy,
                      batch.cells[i].label + ": ideal tableau re-drive "
                                             "reproduces the ideal energy");
        }
    }
    batch.traceTail(run);
}

} // namespace eftbench
