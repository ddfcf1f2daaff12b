#include "layers.hpp"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <numbers>

#include "ansatz/ansatz.hpp"
#include "ham/heisenberg.hpp"
#include "ham/ising.hpp"
#include "ham/molecule.hpp"
#include "sim/backend.hpp"
#include "sim/compiled_circuit.hpp"
#include "store/sweep_store.hpp"

namespace eftbench {

using namespace eftvqa;

namespace {

/** Uniform [0, 1) from a fixed stream (platform-independent). */
double
unit(uint64_t seed, uint64_t i)
{
    return static_cast<double>(mix(seed, i) >> 11) * 0x1.0p-53;
}

std::string
fmtJ(double j)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", j);
    return buf;
}

/** Backend of the regime's substrate and noise, as the engine builds it. */
std::unique_ptr<sim::Backend>
backendFor(const RegimeSpec &regime, size_t n)
{
    const EstimationConfig config = regime.estimationConfig();
    return sim::makeBackend(config.backend, n,
                            config.noise ? &*config.noise : nullptr);
}

// The regimes every probe uses; fixed seeds keep the probes
// independent of --seed.
const uint64_t kProbeSeed = 0x9E0BE5EEDull;
const size_t kProbeTrajectories = 50;

std::vector<RegimeSpec>
cliffordProbeRegimes()
{
    return {RegimeSpec::idealTableau(kProbeSeed),
            RegimeSpec::nisqTableau(kProbeTrajectories, kProbeSeed),
            RegimeSpec::pqecTableau(kProbeTrajectories, kProbeSeed)};
}

/** Probe energies in problem order x regime order. */
std::vector<std::pair<std::string, double>>
dmProbeValues(size_t threads)
{
    const auto problems = dmProblems();
    const std::vector<RegimeSpec> regimes = {
        RegimeSpec::ideal(), RegimeSpec::nisqDensityMatrix(),
        RegimeSpec::pqecDensityMatrix()};
    std::vector<std::pair<std::string, double>> out(problems.size() *
                                                    regimes.size());
    parallelFor(problems.size(), threads, [&](size_t i) {
        const Problem &p = problems[i];
        ExperimentSpec spec;
        spec.hamiltonian = p.ham;
        spec.ansatz = p.ansatz;
        spec.regimes = regimes;
        spec.executor_threads = 1;
        ExperimentSession session(std::move(spec));
        const Circuit bound = probeCircuit(p, false);
        for (size_t r = 0; r < regimes.size(); ++r)
            out[i * regimes.size() + r] = {
                "dm/" + p.name + "/" + regimes[r].name,
                session.energy(regimes[r], bound)};
    });
    return out;
}

std::vector<std::pair<std::string, double>>
cliffordProbeValues()
{
    std::vector<std::pair<std::string, double>> out;
    for (const Problem &p : cliffordProblems()) {
        ExperimentSpec spec;
        spec.hamiltonian = p.ham;
        spec.ansatz = p.ansatz;
        spec.regimes = cliffordProbeRegimes();
        spec.executor_threads = 1;
        ExperimentSession session(std::move(spec));
        const Circuit bound = probeCircuit(p, true);
        for (const RegimeSpec &r : session.spec().regimes)
            out.emplace_back("clifford/" + p.name + "/" + r.name,
                             session.energy(r, bound));
    }
    return out;
}

void
compareProbes(Run &run, const std::vector<std::pair<std::string, double>> &got,
              double tolerance)
{
    auto want = loadProbes(run.probes_path);
    if (run.corrupt_probe && !got.empty())
        want[got.front().first] += 1e-6;
    for (const auto &[name, value] : got) {
        const auto it = want.find(name);
        if (!run.check(it != want.end(), "probe " + name + " not recorded"))
            continue;
        // Exact comparison when tolerance is 0: the tableau tallies are
        // bit-identical by contract.
        const bool ok = tolerance == 0.0
                            ? value == it->second
                            : std::abs(value - it->second) <= tolerance;
        char buf[160];
        std::snprintf(buf, sizeof(buf), "probe %s: got %.17g, recorded %.17g",
                      name.c_str(), value, it->second);
        run.check(ok, buf);
    }
}

} // namespace

std::vector<Problem>
dmProblems()
{
    std::vector<Problem> out;
    const Circuit ansatz = fcheAnsatz(8, 1);
    for (double j : {0.25, 0.5, 1.0})
        out.push_back({"ising_j" + fmtJ(j), isingHamiltonian(8, j), ansatz});
    for (double j : {0.25, 0.5, 1.0})
        out.push_back({"heisenberg_j" + fmtJ(j), heisenbergHamiltonian(8, j),
                       ansatz});
    const std::pair<Molecule, const char *> molecules[] = {
        {Molecule::H2O, "h2o"}, {Molecule::H6, "h6"}, {Molecule::LiH, "lih"}};
    for (const auto &[m, name] : molecules)
        for (double l : {1.0, 4.5}) {
            MoleculeSpec spec{m, l, 8};
            out.push_back({std::string(name) + "_l" + fmtJ(l),
                           moleculeHamiltonian(spec), ansatz});
        }
    return out;
}

std::vector<Problem>
cliffordProblems()
{
    std::vector<Problem> out;
    for (int n : {16, 32, 48}) {
        const Circuit ansatz = fcheAnsatz(n, 1);
        out.push_back({"ising_n" + std::to_string(n),
                       isingHamiltonian(n, 1.0), ansatz});
        out.push_back({"heisenberg_n" + std::to_string(n),
                       heisenbergHamiltonian(n, 1.0), ansatz});
    }
    return out;
}

Circuit
probeCircuit(const Problem &p, bool clifford)
{
    uint64_t salt = 0xcbf29ce484222325ull; // FNV-1a of the name
    for (const char c : p.name)
        salt = (salt ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
    std::vector<double> params(p.ansatz.nParameters());
    for (size_t i = 0; i < params.size(); ++i) {
        const double u = unit(kProbeSeed ^ salt, i);
        params[i] = clifford ? std::floor(u * 4.0) * std::numbers::pi / 2.0
                             : (u - 0.5) * std::numbers::pi;
    }
    return p.ansatz.bind(params);
}

namespace {

std::unique_ptr<CompiledCircuit>
compileSampled(Samples &samples, const Circuit &bound)
{
    auto compiled = timed(samples, "sim.compile", "sim.compile_ms", 0, [&] {
        return std::make_unique<CompiledCircuit>(bound);
    });
    samples.add("sim.compiled_ops", static_cast<double>(compiled->nOps()));
    return compiled;
}

} // namespace

double
redriveDensityMatrix(Samples &samples, const Hamiltonian &ham,
                     const Circuit &bound, const RegimeSpec &regime)
{
    const size_t n = bound.nQubits();
    const auto compiled = compileSampled(samples, bound);
    auto clean = sim::makeBackend(sim::BackendKind::DensityMatrix, n);
    timed(samples, "sim.dm_run", "sim.dm_run_ms", 0, [&] {
        clean->prepareCompiled(*compiled);
        return 0;
    });
    auto noisy = backendFor(regime, n);
    timed(samples, "noise.dm_prepare", "noise.dm_prepare_ms", 0, [&] {
        noisy->prepareCompiled(*compiled);
        return 0;
    });
    return timed(samples, "sim.dm_expectation", "sim.dm_expectation_ms", 0,
                 [&] { return noisy->energy(ham); });
}

double
redriveStatevector(Samples &samples, const Hamiltonian &ham,
                   const Circuit &bound)
{
    return timed(samples, "sim.sv_energy", "sim.sv_energy_ms", 0, [&] {
        const CompiledCircuit compiled(bound);
        auto sv =
            sim::makeBackend(sim::BackendKind::Statevector, bound.nQubits());
        sv->prepareCompiled(compiled);
        return sv->energy(ham);
    });
}

double
redriveTableau(Samples &samples, const Hamiltonian &ham, const Circuit &bound,
               const RegimeSpec &regime)
{
    const size_t n = bound.nQubits();
    const auto compiled = compileSampled(samples, bound);
    auto backend = backendFor(regime, n);
    const EstimationConfig config = regime.estimationConfig();
    const size_t trajectories = config.noise ? config.noise->trajectories : 1;
    Span span("stabilizer.energy");
    const auto t0 = Clock::now();
    backend->prepareCompiled(*compiled);
    const double e = backend->energy(ham);
    const double ms = msSince(t0);
    if (trajectories > 1)
        samples.add("stabilizer.trajectory_us_n" + std::to_string(n),
                    1000.0 * ms / static_cast<double>(trajectories));
    else
        samples.add("stabilizer.ideal_ms", ms);
    return e;
}

void
checkDmProbes(Run &run, size_t threads)
{
    compareProbes(run, dmProbeValues(threads), 1e-9);
}

void
checkCliffordProbes(Run &run)
{
    compareProbes(run, cliffordProbeValues(), 0.0);
}

void
recordProbes(size_t threads)
{
    for (const auto &v : {dmProbeValues(threads), cliffordProbeValues()})
        for (const auto &[name, value] : v)
            std::printf("%s %.17g\n", name.c_str(), value);
}

void
storeLayer(Run &run, const std::string &store_path)
{
    Span span("store.layer");
    std::vector<std::string> lines;
    for (int i = 0; i < 3; ++i) {
        const auto t0 = Clock::now();
        store::SweepStore reopened(store_path,
                                   store::SweepStore::Mode::read_only);
        run.samples.add("store.open_ms", msSince(t0));
        if (i == 0)
            for (const auto &cell : reopened.cells())
                lines.push_back(cell.line);
    }
    if (lines.empty())
        return;
    run.samples.add("store.bytes_per_cell",
                    static_cast<double>(std::filesystem::file_size(store_path)) /
                        static_cast<double>(lines.size()));
    const std::string replay = store_path + ".replay";
    {
        store::SweepStore out(replay, store::SweepStore::Mode::append,
                              "replay");
        for (size_t i = 0; i < 1000; ++i) {
            Span append("store.append");
            const auto t0 = Clock::now();
            out.appendLine(lines[i % lines.size()]);
            run.samples.add("store.append_ms", msSince(t0));
        }
    }
    std::filesystem::remove(replay);
}

void
referenceLayerProbes(const Samples &have, Samples &out)
{
    // Density-matrix and statevector layers: the first Ising case and
    // the H6 surrogate (the largest expectation) under both noisy
    // regimes.
    if (!have.has("noise.dm_prepare_ms") || !have.has("sim.sv_energy_ms")) {
        const auto problems = dmProblems();
        for (const Problem *p : {&problems[0], &problems[8]}) {
            const Circuit bound = probeCircuit(*p, false);
            for (const RegimeSpec &r : {RegimeSpec::nisqDensityMatrix(),
                                        RegimeSpec::pqecDensityMatrix()})
                redriveDensityMatrix(out, p->ham, bound, r);
            redriveStatevector(out, p->ham, bound);
        }
    }
    // Tableau layer: every width the workload did not reach.
    const auto regimes = cliffordProbeRegimes();
    for (const Problem &p : cliffordProblems()) {
        const std::string traj =
            "stabilizer.trajectory_us_n" + std::to_string(p.ham.nQubits());
        const Circuit bound = probeCircuit(p, true);
        if (!have.has(traj))
            redriveTableau(out, p.ham, bound, regimes[1]);
        if (!have.has("stabilizer.ideal_ms"))
            redriveTableau(out, p.ham, bound, regimes[0]);
    }
}

} // namespace eftbench
