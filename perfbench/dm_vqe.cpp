/**
 * @file
 * dm_vqe: fig13's twelve default 8-qubit cases as one SweepSpec through
 * SweepRunner into a binary store. Each cell runs an ideal best-of on
 * the statevector, then a fixed-budget Nelder-Mead refine from that
 * optimum under the NISQ and pQEC density-matrix regimes. Nearly all of
 * the time is the noisy density-matrix prepare; Nelder-Mead never
 * repeats a circuit, so the energy cache and compile memo only insert.
 */

#include <atomic>
#include <cmath>

#include "ansatz/ansatz.hpp"
#include "batch.hpp"
#include "layers.hpp"
#include "vqa/metrics.hpp"

namespace eftbench {

using namespace eftvqa;

namespace {

/** What one cell's optimizers returned, kept for the checks. */
struct CellResult
{
    VqeResult ideal, nisq, pqec;
};

struct Budget
{
    size_t refine = 20; ///< Nelder-Mead evaluations per noisy regime
    size_t ideal = 80;  ///< per best-of attempt on the statevector
    size_t attempts = 3;
};

SweepSpec
makeSpec(const Run &run, const Budget &b)
{
    SweepSpec s;
    s.name = "perfbench_dm_vqe";
    // Costliest cells first (the molecules' 367-919-term expectations),
    // so a round does not end with one worker finishing a slow cell
    // while the other idles.
    s.families = {HamFamily::Molecule, HamFamily::Heisenberg, HamFamily::Ising};
    s.sizes = {8};
    s.couplings = {0.25, 0.5, 1.0};
    for (Molecule m : {Molecule::H2O, Molecule::H6, Molecule::LiH})
        for (double l : {1.0, 4.5})
            s.molecules.push_back({m, l, 8});
    if (run.tiny) {
        s.families = {HamFamily::Molecule, HamFamily::Ising};
        s.couplings = {1.0};
        s.molecules.resize(1);
    }
    s.ansatz = [](int n) { return fcheAnsatz(n, 1); };
    s.regimes = {RegimeSpec::ideal(), RegimeSpec::nisqDensityMatrix(),
                 RegimeSpec::pqecDensityMatrix()};
    s.cell_workers = run.pinned.cell_workers;
    s.executor_threads = run.pinned.executor_threads;
    s.key_salt = b.refine * 1000003 + b.ideal * 101 + b.attempts;
    const uint64_t seed = run.seed;
    // genetic.seed is unused by the continuous entry points: it carries
    // the per-case best-of seed into the cell key, as fig13 does.
    s.customize = [seed](const SweepPoint &pt, ExperimentSpec &spec) {
        spec.genetic.seed = mix(seed, 1000 + pt.index);
    };
    return s;
}

/** The evaluator the optimizers call: counts every energy, and in a
 *  traced round records the circuit's content hash and, for the
 *  density-matrix regimes (@p timed), its time: vqa.energy_ms follows
 *  the noisy refines that carry the workload, not the statevector
 *  best-of, whose energies outnumber them six to one. */
EnergyEvaluator
observed(Run &run, EnergyEvaluator inner, std::atomic<size_t> &energies,
         std::vector<uint64_t> &hashes, std::mutex &hash_mutex,
         uint64_t request, bool timed)
{
    if (!tracer().enabled())
        return [inner = std::move(inner), &energies](const Circuit &c) {
            energies.fetch_add(1, std::memory_order_relaxed);
            return inner(c);
        };
    return [&run, inner = std::move(inner), &energies, &hashes, &hash_mutex,
            request, timed](const Circuit &c) {
        energies.fetch_add(1, std::memory_order_relaxed);
        Span span("vqa.energy", request);
        const auto t0 = Clock::now();
        const double e = inner(c);
        if (timed)
            run.samples.add("vqa.energy_ms", msSince(t0));
        std::lock_guard<std::mutex> lock(hash_mutex);
        hashes.push_back(c.contentHash());
        return e;
    };
}

} // namespace

void
runDmVqe(Run &run)
{
    const Budget budget = run.tiny ? Budget{4, 12, 2} : Budget{};
    const size_t workers = run.pinned.cell_workers;

    BatchRounds batch;
    batch.name = "dm_vqe";
    batch.spec = [&run, budget] { return makeSpec(run, budget); };
    const size_t n_cells = batch.spec().cellCount();
    std::vector<CellResult> first;
    std::vector<uint64_t> hashes;
    std::mutex hash_mutex;
    size_t energies_per_round = 0;

    runRounds(run, 3, [&](size_t r, bool traced) {
        hashes.clear();
        std::vector<CellResult> results(n_cells);
        std::atomic<size_t> energies{0};
        const auto fn = [&](const SweepCell &cell, ExperimentSession &session,
                            long long sweep_span) {
            const auto c0 = Clock::now();
            const uint64_t request = cell.point.index + 1;
            Span span("vqa.cell", request, sweep_span);
            const auto &spec = session.spec();
            NelderMeadOptimizer opt(0.6);
            const auto eval = [&](const char *regime) {
                return observed(run, session.evaluator(spec.regime(regime)),
                                energies, hashes, hash_mutex, request,
                                std::string(regime) != "ideal");
            };
            CellResult res;
            res.ideal = runBestOf(spec.ansatz, eval("ideal"), opt,
                                  budget.ideal, budget.attempts,
                                  spec.genetic.seed);
            res.nisq = runVqe(spec.ansatz, eval("nisq"), opt,
                              res.ideal.params, budget.refine);
            res.pqec = runVqe(spec.ansatz, eval("pqec"), opt,
                              res.ideal.params, budget.refine);
            const double e0 = session.hamiltonian().groundStateEnergy();
            SweepRow row;
            row.set("case", cell.label);
            row.set("e0", e0);
            row.set("e_ideal", res.ideal.energy);
            row.set("e_nisq", res.nisq.energy);
            row.set("e_pqec", res.pqec.energy);
            row.set("gamma", relativeImprovement(e0, res.pqec.energy,
                                                 res.nisq.energy));
            results[cell.point.index] = std::move(res);
            if (traced)
                run.samples.add("vqa.cell_ms", msSince(c0));
            return row;
        };
        if (batch.round(run, r, traced, fn) && r == 0)
            first = std::move(results);
        energies_per_round = energies.load();
        if (traced)
            addDistinctFraction(run.samples, hashes);
    });

    // The probes run after the rounds, so the first round, whose peak
    // resident set is peak_rss_mb, starts in a process that has done
    // nothing else: threads the probes leave behind hand their
    // fragmented heaps to the sweep's workers in whatever order they
    // exit, which moved that peak by up to 16% from run to run.
    checkDmProbes(run, workers);

    // Per-request checks on round 0 (later rounds are bit-identical to
    // it): each returned energy equals a re-evaluation of the returned
    // parameters in a fresh session, and no refine ends above its start.
    std::vector<std::vector<std::pair<bool, std::string>>> verdicts(
        first.size());
    parallelFor(first.size(), workers, [&](size_t i) {
        const SweepCell &cell = batch.cells[i];
        const CellResult &res = first[i];
        ExperimentSession fresh(cell.experiment);
        const auto &spec = fresh.spec();
        const auto energy = [&](const char *regime,
                                const std::vector<double> &p) {
            return fresh.energy(spec.regime(regime), spec.ansatz.bind(p));
        };
        auto &v = verdicts[i];
        v.emplace_back(std::abs(energy("ideal", res.ideal.params) -
                                res.ideal.energy) <= 1e-12,
                       cell.label + ": ideal energy re-evaluates");
        for (const auto &[name, vr] :
             {std::pair<const char *, const VqeResult *>{"nisq", &res.nisq},
              {"pqec", &res.pqec}}) {
            v.emplace_back(std::abs(energy(name, vr->params) - vr->energy) <=
                               1e-12,
                           cell.label + ": " + name + " energy re-evaluates");
            v.emplace_back(vr->energy <= energy(name, res.ideal.params),
                           cell.label + ": " + name +
                               " refine ends at or below its start");
        }
    });
    for (const auto &v : verdicts)
        for (const auto &[ok, what] : v)
            run.check(ok, what);

    batch.metrics(run, static_cast<double>(energies_per_round));
    if (!run.trace)
        return;

    // Layer re-drive of the optima: every refined circuit under its
    // regime and the ideal optimum on the statevector, each of which
    // must reproduce session.energy on the same inputs.
    for (size_t i = 0; i < first.size(); ++i) {
        const SweepCell &cell = batch.cells[i];
        const CellResult &res = first[i];
        const auto &spec = cell.experiment;
        for (const auto &[name, vr] :
             {std::pair<const char *, const VqeResult *>{"nisq", &res.nisq},
              {"pqec", &res.pqec}}) {
            const double e = redriveDensityMatrix(
                run.samples, spec.hamiltonian, spec.ansatz.bind(vr->params),
                spec.regime(name));
            run.check(std::abs(e - vr->energy) <= 1e-12,
                      cell.label + ": " + name +
                          " re-drive reproduces session.energy");
        }
        const double e = redriveStatevector(
            run.samples, spec.hamiltonian, spec.ansatz.bind(res.ideal.params));
        run.check(std::abs(e - res.ideal.energy) <= 1e-12,
                  cell.label +
                      ": statevector re-drive reproduces session.energy");
    }
    batch.traceTail(run);
}

} // namespace eftbench
