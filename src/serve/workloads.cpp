#include "serve/workloads.hpp"

#include <algorithm>
#include <stdexcept>

#include "ansatz/ansatz.hpp"
#include "common/table.hpp"
#include "ham/heisenberg.hpp"
#include "ham/ising.hpp"
#include "mitigation/varsaw.hpp"
#include "noise/noise_model.hpp"

namespace eftvqa {
namespace serve {

namespace {

struct Mode
{
    bool smoke = false;
    bool full = false;
};

Mode
parseMode(const std::string &mode)
{
    if (mode == "smoke")
        return {true, false};
    if (mode == "full")
        return {false, true};
    if (mode == "default" || mode.empty())
        return {false, false};
    throw std::invalid_argument(
        "workload mode: expected smoke/default/full, got '" + mode + "'");
}

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

constexpr AnsatzKind kRatioKinds[] = {
    AnsatzKind::LinearHea, AnsatzKind::Fche, AnsatzKind::BlockedAllToAll,
    AnsatzKind::UccsdLite};

} // namespace

bool
validWorkloadMode(std::string_view mode)
{
    return mode == "smoke" || mode == "full" || mode == "default" ||
           mode.empty();
}

Workload
fig12Workload(const std::string &mode)
{
    const Mode m = parseMode(mode);
    const int max_qubits = m.smoke ? 16 : (m.full ? 100 : 48);
    const int step = m.full ? 12 : 16;

    GeneticConfig config;
    config.population = m.smoke ? 8 : (m.full ? 24 : 12);
    config.generations = m.smoke ? 3 : (m.full ? 15 : 6);
    config.seed = 1234;
    // Enough trajectories that the tiny pQEC error budget resolves to a
    // finite energy gap (the paper's gamma values are finite ratios).
    const size_t trajectories = m.smoke ? 64 : (m.full ? 800 : 400);

    Workload wl;
    wl.spec.name = "fig12_clifford_scale";
    wl.spec.families = {HamFamily::Ising, HamFamily::Heisenberg};
    for (int n = 16; n <= max_qubits; n += step)
        wl.spec.sizes.push_back(n);
    wl.spec.couplings = m.smoke ? std::vector<double>{1.0}
                                : std::vector<double>{0.25, 1.0};
    wl.spec.ansatz = [](int n) { return fcheAnsatz(n, 1); };
    wl.spec.genetic = config;
    // GA regimes at trajectories/8; the eval regimes ride in per cell
    // (their seeds depend on the grid point).
    wl.spec.regimes = {RegimeSpec::nisqTableau(trajectories / 8),
                       RegimeSpec::pqecTableau(trajectories / 8)};
    wl.spec.customize = [trajectories](const SweepPoint &pt,
                                       ExperimentSpec &spec) {
        spec.genetic.seed = 1234 +
                            static_cast<uint64_t>(pt.qubits) * 17 +
                            static_cast<uint64_t>(pt.coupling * 100.0);
        // Eval regimes at full trajectories with their own seeds
        // (fresh samples remove the GA's optimistic selection bias).
        spec.regimes.push_back(
            RegimeSpec::nisqTableau(
                trajectories, 9100 + static_cast<uint64_t>(pt.qubits))
                .named("nisq-eval"));
        spec.regimes.push_back(
            RegimeSpec::pqecTableau(
                trajectories, 9200 + static_cast<uint64_t>(pt.qubits))
                .named("pqec-eval"));
    };

    // The paper's per-case protocol: both GAs, the shared ideal-tableau
    // reference (section 5.3.1), and the unbiased re-scoring.
    wl.fn = [trajectories](const SweepCell &cell,
                           ExperimentSession &session) {
        const auto nisq =
            session.cliffordVqe(session.spec().regime("nisq"));
        const auto pqec =
            session.cliffordVqe(session.spec().regime("pqec"));
        // E0 = lowest noiseless stabilizer energy seen anywhere
        // (dedicated reference GA plus both winners' ideal energies).
        // The reference GA shares the ideal-tableau engine — and its
        // cache entries — with the winners' ideal-energy evaluations.
        const double e0 = std::min({session.cliffordReference(),
                                    nisq.ideal_energy,
                                    pqec.ideal_energy});
        const auto &ansatz = session.spec().ansatz;
        const double floor = 2.0 / static_cast<double>(trajectories);
        const RegimeComparison cmp = compareRegimes(
            session, session.spec().regime("pqec-eval"),
            ansatz.bind(cliffordAngles(pqec.angles)),
            session.spec().regime("nisq-eval"),
            ansatz.bind(cliffordAngles(nisq.angles)), e0, floor);
        SweepRow row;
        row.set("family", hamFamilyName(cell.point.family));
        row.set("qubits", cell.point.qubits);
        row.set("j", cell.point.coupling);
        row.set("e0", e0);
        row.set("e_nisq", cmp.energy_b);
        row.set("e_pqec", cmp.energy_a);
        row.set("gamma", cmp.gamma);
        return row;
    };
    wl.knobs.set("trajectories", trajectories);
    return wl;
}

Workload
fig13Workload(const std::string &mode)
{
    const Mode m = parseMode(mode);
    // The paper runs 8 and 12 qubits; default runs 8-qubit physics
    // models plus shrunken 8-qubit molecular surrogates, full the
    // 12-qubit Hamiltonians with the paper's term counts.
    const int n = m.full ? 12 : 8;
    const size_t evals = m.smoke ? 60 : (m.full ? 400 : 150);
    const size_t attempts = m.full ? 3 : 2;

    Workload wl;
    wl.spec.name = "fig13_density_matrix_gamma";
    if (m.smoke) {
        // CI-sized subset: one physics case per family.
        wl.spec.families = {HamFamily::Ising, HamFamily::Heisenberg};
        wl.spec.couplings = {1.0};
    } else {
        // SweepSpec shares one coupling axis across families; the
        // paper's Ising and Heisenberg sweeps use the same J list,
        // which this guard pins — if the factories ever diverge, this
        // workload must grow a per-family axis rather than silently
        // sweeping Heisenberg over the Ising couplings.
        if (isingCouplings() != heisenbergCouplings())
            throw std::logic_error(
                "fig13: isingCouplings() != heisenbergCouplings(); split "
                "the coupling axis per family");
        wl.spec.families = {HamFamily::Ising, HamFamily::Heisenberg,
                            HamFamily::Molecule};
        wl.spec.couplings = isingCouplings();
        for (auto spec : paperMoleculeBenchmarks()) {
            spec.n_qubits = n;
            wl.spec.molecules.push_back(spec);
        }
    }
    wl.spec.sizes = {n};
    wl.spec.ansatz = [](int nq) { return fcheAnsatz(nq, 1); };
    wl.spec.regimes = {RegimeSpec::ideal(), RegimeSpec::nisqDensityMatrix(),
                       RegimeSpec::pqecDensityMatrix()};
    // The optimizer budget changes the rows but lives in the cell
    // function, and the per-case seed walks the cell index; both must
    // reach the cell key (the seed via genetic.seed below) or a cell
    // store written in one mode would wrongly resume another.
    wl.spec.key_salt = evals * 8 + attempts;
    wl.spec.customize = [](const SweepPoint &pt, ExperimentSpec &spec) {
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
    wl.fn = [evals, attempts](const SweepCell &cell,
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
        SweepRow row;
        row.set("benchmark", name);
        row.set("e0", e0);
        row.set("e_nisq", nisq.energy);
        row.set("e_pqec", pqec.energy);
        row.set("gamma", relativeImprovement(e0, pqec.energy, nisq.energy));
        return row;
    };
    wl.knobs.set("evals", evals);
    return wl;
}

Workload
fig14Workload(const std::string &mode)
{
    const Mode m = parseMode(mode);

    GeneticConfig config;
    config.population = m.smoke ? 8 : (m.full ? 20 : 14);
    config.generations = m.smoke ? 4 : (m.full ? 12 : 8);
    config.seed = 77;
    const size_t trajectories = 30;
    const size_t eval_traj = m.smoke ? 200 : 600;

    Workload wl;
    wl.spec.name = "fig14_blocked_vs_fche";
    wl.spec.families = {HamFamily::Ising, HamFamily::Heisenberg};
    wl.spec.sizes = m.smoke ? std::vector<int>{16}
                            : (m.full ? std::vector<int>{16, 24, 32}
                                      : std::vector<int>{16, 24});
    wl.spec.couplings = {0.25, 1.0};
    wl.spec.ansatz = [](int n) { return fcheAnsatz(n, 1); };
    wl.spec.genetic = config;
    wl.spec.regimes = {
        RegimeSpec::pqecTableau(trajectories),
        RegimeSpec::pqecTableau(eval_traj, 312).named("blocked-eval"),
        RegimeSpec::pqecTableau(eval_traj, 311).named("fche-eval"),
    };
    wl.spec.customize = [](const SweepPoint &pt, ExperimentSpec &spec) {
        spec.genetic.seed =
            77 + static_cast<uint64_t>(pt.qubits) * 13 +
            static_cast<uint64_t>(pt.coupling * 100.0) +
            (pt.family == HamFamily::Ising ? 0 : 7);
    };

    wl.fn = [eval_traj](const SweepCell &cell,
                        ExperimentSession &session) {
        // The blocked ansatz rides along via the explicit-ansatz entry
        // points of the session.
        const auto &fche = session.spec().ansatz;
        const auto blocked = blockedAllToAllAnsatz(cell.point.qubits, 1);

        // Both reference GAs share the session's ideal-tableau engine —
        // and its cache — with the winners' ideal-energy evaluations
        // below.
        const double e0_f = session.cliffordReference();
        const double e0_b = session.cliffordReference(blocked);
        const double e0 = std::min(e0_f, e0_b);

        const auto &pqec = session.spec().regime("pqec");
        const auto run_f = session.cliffordVqe(pqec);
        const auto run_b = session.cliffordVqe(pqec, blocked);
        // Fresh-sample eval regimes remove the GA's optimistic bias
        // before the comparison.
        const RegimeComparison cmp = compareRegimes(
            session, session.spec().regime("blocked-eval"),
            blocked.bind(cliffordAngles(run_b.angles)),
            session.spec().regime("fche-eval"),
            fche.bind(cliffordAngles(run_f.angles)), e0,
            2.0 / static_cast<double>(eval_traj));
        // Expressibility proxy: ratio of noiseless optima.
        const double ideal_ratio =
            (e0_b != 0.0 && e0_f != 0.0) ? e0_b / e0_f : 1.0;
        SweepRow row;
        row.set("family", hamFamilyName(cell.point.family));
        row.set("qubits", cell.point.qubits);
        row.set("j", cell.point.coupling);
        row.set("gamma", cmp.gamma);
        row.set("ideal_ratio", ideal_ratio);
        return row;
    };
    return wl;
}

Workload
fig15Workload(const std::string &mode)
{
    const Mode m = parseMode(mode);
    // The paper runs 12 qubits (--full); default 8 for runtime.
    const int n = m.smoke ? 6 : (m.full ? 12 : 8);
    const size_t evals = m.smoke ? 80 : (m.full ? 400 : 180);

    Workload wl;
    wl.spec.name = "fig15_varsaw";
    wl.spec.families = {HamFamily::Ising, HamFamily::Heisenberg};
    wl.spec.sizes = {n};
    wl.spec.couplings = {1.0};
    wl.spec.ansatz = [](int nq) { return fcheAnsatz(nq, 1); };
    wl.spec.regimes = {RegimeSpec::ideal(), RegimeSpec::nisqDensityMatrix(),
                       RegimeSpec::pqecDensityMatrix()};
    // The optimizer budget lives in the cell function: salt it into
    // the cell keys so a --cells store never resumes across modes.
    wl.spec.key_salt = evals;

    // Warm-start both regimes from the converged noiseless optimum
    // (OPR, paper section 2.1) so convergence differences reflect
    // mitigation, not optimizer budget. One cell = one family; both
    // regimes' plain and mitigated runs land in the cell's row, and
    // they share the regime engines — and the sweep-level energy
    // cache — so the warm-start evaluations are computed once.
    wl.fn = [evals](const SweepCell &cell, ExperimentSession &session) {
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
    wl.knobs.set("qubits", n);
    return wl;
}

Workload
ablationRzCnotWorkload(const std::string &mode)
{
    parseMode(mode); // the analytic grid is the same in every mode

    // One cell per qubit count, each row carrying the four ansatz
    // families' ratios at that size. The analytic cell function never
    // touches its session; the sweep still provides the cell keys, the
    // resumable store and the daemon path.
    Workload wl;
    wl.spec.name = "ablation_rz_cnot_ratio";
    wl.spec.families = {HamFamily::Ising};
    wl.spec.sizes = {8, 16, 32, 64};
    wl.spec.couplings = {1.0};
    wl.spec.ansatz = [](int n) { return fcheAnsatz(n, 1); };
    wl.fn = [](const SweepCell &cell, ExperimentSession &) {
        SweepRow row;
        row.set("qubits", cell.point.qubits);
        for (const AnsatzKind kind : kRatioKinds)
            row.set(ansatzKindName(kind),
                    cnotToRzRatio(kind, cell.point.qubits));
        return row;
    };
    // The unrounded 23/30-derived pQEC boundary; the paper rounds it
    // to 0.76 (the blocked ratio at N=13 is 0.7596).
    wl.knobs.set("threshold", 0.755);
    return wl;
}

void
WorkloadCatalog::registerWorkload(std::string name,
                                  WorkloadFactory factory)
{
    if (name.empty())
        throw std::invalid_argument(
            "WorkloadCatalog: workload name must be non-empty");
    if (!factory)
        throw std::invalid_argument("WorkloadCatalog: factory for '" +
                                    name + "' must be callable");
    factories_[std::move(name)] = std::move(factory);
}

bool
WorkloadCatalog::has(std::string_view name) const
{
    return factories_.find(name) != factories_.end();
}

Workload
WorkloadCatalog::build(const std::string &name,
                       const std::string &mode) const
{
    const auto it = factories_.find(name);
    if (it == factories_.end())
        throw std::invalid_argument("unknown workload '" + name + "'");
    Workload wl = it->second(mode);
    // Validation-before-work: a workload the daemon admits cells from
    // must expand cleanly; surface spec errors here, not mid-request.
    wl.spec.validate();
    return wl;
}

std::vector<std::string>
WorkloadCatalog::names() const
{
    std::vector<std::string> out;
    out.reserve(factories_.size());
    for (const auto &[name, factory] : factories_)
        out.push_back(name);
    return out;
}

WorkloadCatalog
WorkloadCatalog::builtin()
{
    WorkloadCatalog catalog;
    catalog.registerWorkload("fig12_clifford_scale", fig12Workload);
    catalog.registerWorkload("fig13_density_matrix_gamma", fig13Workload);
    catalog.registerWorkload("fig14_blocked_vs_fche", fig14Workload);
    catalog.registerWorkload("fig15_varsaw", fig15Workload);
    catalog.registerWorkload("ablation_rz_cnot_ratio",
                             ablationRzCnotWorkload);
    return catalog;
}

} // namespace serve
} // namespace eftvqa
