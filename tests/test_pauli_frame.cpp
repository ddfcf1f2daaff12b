/**
 * @file
 * Bit-identity of the Pauli-frame trajectory farm.
 *
 * NoisyCliffordSimulator runs a Measure/Reset-free circuit's noisy
 * trajectories as Pauli frames over one ideal tableau. The reference
 * here replays every trajectory on a full Tableau through its public
 * API, with its own layering and its own noise loop in the documented
 * draw order (per ASAP layer, each gate and then its channel, then the
 * layer's idle qubits in index order), on the same forked streams. So a
 * draw-order or conjugation bug in the production walker shows as a
 * mismatch rather than being shared by both sides. The farm is checked
 * at OpenMP team sizes 1, 2 and 4.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "noise/noise_model.hpp"
#include "stabilizer/noisy_clifford.hpp"
#include "stabilizer/pauli_frame.hpp"
#include "vqa/fault.hpp"

#include "omp_team.hpp"

using namespace eftvqa;

namespace {

/** Every CliffordNoiseSpec field live, px != py != pz in each channel. */
CliffordNoiseSpec
fullSpec()
{
    CliffordNoiseSpec spec;
    spec.one_qubit = {0.011, 0.023, 0.037};
    spec.two_qubit_depol = 0.061;
    spec.rotation = {0.031, 0.017, 0.043};
    spec.idle = {0.013, 0.029, 0.007};
    spec.meas_flip = 0.021;
    return spec;
}

/** Idle channel and two-qubit depolarizing off: their draws vanish. */
CliffordNoiseSpec
sparseSpec()
{
    CliffordNoiseSpec spec;
    spec.one_qubit = {0.05, 0.0, 0.02};
    spec.rotation = {0.0, 0.04, 0.0};
    return spec;
}

void
referenceChannel(Tableau &t, const PauliChannel &ch, size_t q, Rng &rng)
{
    const double u = rng.uniform();
    if (u < ch.px)
        t.x(q);
    else if (u < ch.px + ch.py)
        t.y(q);
    else if (u < ch.px + ch.py + ch.pz)
        t.z(q);
}

void
referencePauli(Tableau &t, uint64_t code, size_t q)
{
    if (code == 1)
        t.x(q);
    else if (code == 2)
        t.y(q);
    else if (code == 3)
        t.z(q);
}

/** <T_j> of every trajectory k, each replayed on its own Tableau. */
std::vector<std::vector<int>>
referenceValues(const Circuit &circuit, const Hamiltonian &ham,
                const CliffordNoiseSpec &spec, uint64_t seed,
                size_t trajectories)
{
    const auto &gates = circuit.gates();
    const size_t n = circuit.nQubits();
    std::vector<std::vector<size_t>> layers;
    std::vector<size_t> depth(n, 0);
    for (size_t i = 0; i < gates.size(); ++i) {
        const Gate &g = gates[i];
        const size_t lvl = g.isTwoQubit()
                               ? std::max(depth[g.q0], depth[g.q1])
                               : depth[g.q0];
        depth[g.q0] = lvl + 1;
        if (g.isTwoQubit())
            depth[g.q1] = lvl + 1;
        if (layers.size() <= lvl)
            layers.resize(lvl + 1);
        layers[lvl].push_back(i);
    }
    const bool idle_live = spec.idle.px + spec.idle.py + spec.idle.pz > 0.0;

    Rng master(seed);
    std::vector<Rng> streams = master.forkStreams(trajectories);
    std::vector<std::vector<int>> values(trajectories);
    for (size_t k = 0; k < trajectories; ++k) {
        Rng &rng = streams[k];
        Tableau t(n);
        for (const auto &layer : layers) {
            std::vector<bool> busy(n, false);
            for (size_t i : layer) {
                const Gate &g = gates[i];
                t.applyGate(g, rng);
                busy[g.q0] = true;
                if (g.isTwoQubit())
                    busy[g.q1] = true;
                if (g.type == GateType::Rz || g.type == GateType::Rx ||
                    g.type == GateType::Ry) {
                    referenceChannel(t, spec.rotation, g.q0, rng);
                } else if (g.isTwoQubit()) {
                    if (spec.two_qubit_depol > 0.0 &&
                        rng.bernoulli(spec.two_qubit_depol)) {
                        const uint64_t idx = rng.uniformInt(15) + 1;
                        referencePauli(t, idx & 3, g.q0);
                        referencePauli(t, (idx >> 2) & 3, g.q1);
                    }
                } else if (g.type != GateType::I &&
                           g.type != GateType::Measure &&
                           g.type != GateType::Reset) {
                    referenceChannel(t, spec.one_qubit, g.q0, rng);
                }
            }
            if (idle_live)
                for (size_t q = 0; q < n; ++q)
                    if (!busy[q])
                        referenceChannel(t, spec.idle, q, rng);
        }
        for (const auto &term : ham.terms())
            values[k].push_back(t.expectation(term.op));
    }
    return values;
}

std::vector<double>
dampingOf(const Hamiltonian &ham, const CliffordNoiseSpec &spec)
{
    std::vector<double> damping;
    for (const auto &term : ham.terms())
        damping.push_back(spec.meas_flip > 0.0
                              ? readoutDampingFactor(spec.meas_flip, term.op)
                              : 1.0);
    return damping;
}

/** energySamples' arithmetic, in its order, over reference values. */
std::vector<double>
referenceEnergySamples(const std::vector<std::vector<int>> &values,
                       const Hamiltonian &ham, const CliffordNoiseSpec &spec)
{
    const auto &terms = ham.terms();
    const std::vector<double> damping = dampingOf(ham, spec);
    std::vector<double> samples;
    for (const auto &ev : values) {
        double total = 0.0;
        for (size_t j = 0; j < terms.size(); ++j)
            if (ev[j] != 0)
                total += terms[j].coefficient *
                         static_cast<double>(ev[j]) * damping[j];
        samples.push_back(total);
    }
    return samples;
}

/** termExpectations' arithmetic, in its order, over reference values. */
std::vector<double>
referenceTermExpectations(const std::vector<std::vector<int>> &values,
                          const Hamiltonian &ham,
                          const CliffordNoiseSpec &spec)
{
    const std::vector<double> damping = dampingOf(ham, spec);
    std::vector<int64_t> acc(ham.nTerms(), 0);
    for (const auto &ev : values)
        for (size_t j = 0; j < ev.size(); ++j)
            acc[j] += ev[j];
    const double inv = 1.0 / static_cast<double>(values.size());
    std::vector<double> out;
    for (size_t j = 0; j < acc.size(); ++j)
        out.push_back(static_cast<double>(acc[j]) * inv * damping[j]);
    return out;
}

/**
 * Random bound Clifford circuit over every gate type the frame takes:
 * I, X, Y, Z, H, S, Sdg, rotations at -3..3 quarter turns, CX, CZ and
 * Swap. Gates land on random qubits, so wide registers idle a lot.
 */
Circuit
randomCircuit(size_t n, size_t n_gates, uint64_t seed)
{
    static const GateType kOne[] = {GateType::I, GateType::X, GateType::Y,
                                    GateType::Z, GateType::H, GateType::S,
                                    GateType::Sdg};
    static const GateType kRot[] = {GateType::Rz, GateType::Rx,
                                    GateType::Ry};
    static const GateType kTwo[] = {GateType::CX, GateType::CZ,
                                    GateType::Swap};
    Rng rng(seed);
    Circuit c(n);
    for (size_t i = 0; i < n_gates; ++i) {
        const auto q = static_cast<uint32_t>(rng.uniformInt(n));
        const uint64_t pick = rng.uniformInt(n > 1 ? 13 : 10);
        if (pick < 7) {
            c.add(Gate(kOne[pick], q));
        } else if (pick < 10) {
            const int k = static_cast<int>(rng.uniformInt(7)) - 3;
            c.add(Gate::rotation(kRot[pick - 7], q, k * M_PI / 2.0));
        } else {
            auto b = static_cast<uint32_t>(rng.uniformInt(n - 1));
            if (b >= q)
                ++b;
            c.add(Gate(kTwo[pick - 10], q, b));
        }
    }
    return c;
}

/**
 * Terms with nonzero ideal values (the ideal state's stabilizers, signs
 * kept) mixed with random low-weight Paulis (mostly 0 ideally), plus
 * one term on the first and last qubit, across every word boundary.
 */
Hamiltonian
mixedHamiltonian(const Circuit &circuit, uint64_t seed)
{
    const size_t n = circuit.nQubits();
    Tableau ideal(n);
    Rng no_draws;
    ideal.run(circuit, no_draws);

    Rng rng(seed);
    Hamiltonian ham(n);
    for (size_t i = 0; i < std::min<size_t>(n, 6); ++i)
        ham.addTerm(0.25 + 0.5 * rng.uniform(),
                    ideal.stabilizer(rng.uniformInt(n)));
    for (int t = 0; t < 6; ++t) {
        PauliString p(n);
        for (int w = 0; w < 3; ++w)
            p.set(rng.uniformInt(n),
                  static_cast<Pauli>(1 + rng.uniformInt(3)));
        ham.addTerm(rng.uniform(-1.0, 1.0), p);
    }
    PauliString ends(n);
    ends.set(0, Pauli::Z);
    ends.set(n - 1, Pauli::X);
    ham.addTerm(-0.75, ends);
    return ham;
}

Circuit
measureResetCircuit()
{
    Circuit c(5);
    c.h(0);
    c.cx(0, 1);
    c.rx(2, M_PI / 2.0);
    c.measure(1);
    c.cz(2, 3);
    c.reset(0);
    c.h(0);
    c.ry(4, -M_PI / 2.0);
    c.cx(3, 4);
    c.measure(2);
    c.s(3);
    c.swap(0, 4);
    c.reset(3);
    c.h(3);
    return c;
}

Hamiltonian
measureResetHamiltonian()
{
    Hamiltonian ham(5);
    ham.addTerm(1.0, "IIIIX");
    ham.addTerm(0.5, "IZIII");
    ham.addTerm(-0.7, "IIZII");
    ham.addTerm(0.3, "ZIIII");
    ham.addTerm(0.9, "IIIXI");
    ham.addTerm(0.4, "IZZII");
    ham.addTerm(-0.2, "IIIXX");
    return ham;
}

} // namespace

TEST(PauliFrame, ConjugatesEveryGateLikeTheTableau)
{
    // For each gate and each error P on a qubit it touches: the state
    // (gate . P)|psi> has <T> = +/-<T> of gate|psi>, negated exactly
    // when P pushed through the gate anticommutes with T. Checked over
    // all 63 non-identity Paulis on 3 qubits.
    std::vector<Gate> gates = {
        Gate(GateType::I, 1),      Gate(GateType::X, 1),
        Gate(GateType::Y, 1),      Gate(GateType::Z, 1),
        Gate(GateType::H, 1),      Gate(GateType::S, 1),
        Gate(GateType::Sdg, 1),    Gate(GateType::CX, 1, 2),
        Gate(GateType::CX, 2, 0),  Gate(GateType::CZ, 0, 1),
        Gate(GateType::Swap, 2, 1)};
    for (GateType rot : {GateType::Rz, GateType::Rx, GateType::Ry})
        for (int k = -5; k <= 5; ++k)
            gates.push_back(Gate::rotation(rot, 1, k * M_PI / 2.0));

    Circuit prep(3);
    prep.h(0);
    prep.cx(0, 1);
    prep.s(1);
    prep.h(2);
    prep.cz(1, 2);
    prep.rx(2, M_PI / 2.0);

    std::vector<PauliString> observables;
    for (int code = 1; code < 64; ++code) {
        PauliString p(3);
        for (size_t q = 0; q < 3; ++q)
            p.set(q, static_cast<Pauli>((code >> (2 * q)) & 3));
        observables.push_back(p);
    }

    Rng rng(1);
    for (const Gate &g : gates) {
        Tableau ideal(3);
        ideal.run(prep, rng);
        ideal.applyGate(g, rng);
        std::vector<uint32_t> touched = {g.q0};
        if (g.isTwoQubit())
            touched.push_back(g.q1);
        for (uint32_t q : touched)
            for (int err = 1; err <= 3; ++err) {
                Tableau noisy(3);
                noisy.run(prep, rng);
                PauliFrame frame(3);
                if (err == 1) {
                    noisy.x(q);
                    frame.x(q);
                } else if (err == 2) {
                    noisy.y(q);
                    frame.y(q);
                } else {
                    noisy.z(q);
                    frame.z(q);
                }
                noisy.applyGate(g, rng);
                frame.applyGate(g, rng);
                for (const PauliString &t : observables) {
                    const int v = ideal.expectation(t);
                    EXPECT_EQ(noisy.expectation(t),
                              frame.anticommutes(t) ? -v : v)
                        << g.toString() << " error " << err << " on " << q
                        << " observable " << t.toString();
                }
            }
    }
}

TEST(PauliFrame, RejectsWhatOnlyATableauCanRun)
{
    PauliFrame frame(2);
    Rng rng(3);
    EXPECT_THROW(frame.applyGate(Gate(GateType::Measure, 0), rng),
                 std::invalid_argument);
    EXPECT_THROW(frame.applyGate(Gate(GateType::Reset, 1), rng),
                 std::invalid_argument);
    EXPECT_THROW(frame.applyGate(Gate(GateType::T, 0), rng),
                 std::invalid_argument);
    EXPECT_THROW(
        frame.applyGate(Gate::rotation(GateType::Rz, 0, 0.3), rng),
        std::invalid_argument);
    EXPECT_THROW(frame.anticommutes(PauliString(3)), std::invalid_argument);
}

TEST(PauliFrame, FarmMatchesTableauReferenceAtEveryWidth)
{
    struct Case
    {
        size_t n;
        size_t gates;
        size_t trajectories;
    };
    for (const Case &c : {Case{1, 24, 48}, Case{63, 150, 12},
                          Case{64, 150, 12}, Case{65, 150, 12},
                          Case{130, 260, 6}}) {
        for (const CliffordNoiseSpec &spec : {fullSpec(), sparseSpec()}) {
            const Circuit circuit = randomCircuit(c.n, c.gates, 100 + c.n);
            const Hamiltonian ham = mixedHamiltonian(circuit, 7 + c.n);
            const uint64_t seed = 9000 + c.n;
            const auto values =
                referenceValues(circuit, ham, spec, seed, c.trajectories);
            const auto want_samples =
                referenceEnergySamples(values, ham, spec);
            const auto want_terms =
                referenceTermExpectations(values, ham, spec);
            for (const int threads : omp_team::sizes()) {
                omp_team::Guard team(threads);
                NoisyCliffordSimulator a(spec, seed);
                NoisyCliffordSimulator b(spec, seed);
                EXPECT_EQ(a.energySamples(circuit, ham, c.trajectories),
                          want_samples)
                    << "n=" << c.n << " threads=" << threads;
                EXPECT_EQ(b.termExpectations(circuit, ham, c.trajectories),
                          want_terms)
                    << "n=" << c.n << " threads=" << threads;
            }
        }
    }
}

TEST(PauliFrame, IdeallyZeroTermIsZeroInEveryTrajectory)
{
    // <Z_0> of |+>|0> is 0. Pauli errors only flip signs, so no
    // trajectory may move it, however noisy.
    Circuit c(2);
    c.h(0);
    c.cx(1, 0);
    c.rz(1, M_PI / 2.0);
    Hamiltonian ham(2);
    ham.addTerm(1.0, "ZI");
    ham.addTerm(0.5, "IZ");
    CliffordNoiseSpec spec = fullSpec();
    spec.one_qubit = {0.2, 0.1, 0.3};
    spec.two_qubit_depol = 0.5;
    NoisyCliffordSimulator sim(spec, 11);
    const auto terms = sim.termExpectations(c, ham, 64);
    EXPECT_EQ(terms[0], 0.0);
    EXPECT_NE(terms[1], 0.0);
    EXPECT_EQ(terms, referenceTermExpectations(
                         referenceValues(c, ham, spec, 11, 64), ham, spec));

    Hamiltonian z0(2);
    z0.addTerm(1.0, "ZI");
    NoisyCliffordSimulator per_trajectory(spec, 12);
    for (double e : per_trajectory.energySamples(c, z0, 64))
        EXPECT_EQ(e, 0.0);
}

TEST(PauliFrame, MeasureResetCircuitKeepsItsTableauValues)
{
    // Measure and Reset outcomes draw from the trajectory's stream, so
    // this circuit still walks a tableau per trajectory. The pinned
    // values come from the tableau-only farm that the frame farm
    // replaced, so they also pin this target's draws.
    const Circuit circuit = measureResetCircuit();
    const Hamiltonian ham = measureResetHamiltonian();
    const CliffordNoiseSpec spec = fullSpec();
    const std::vector<double> pinned_terms = {
        0x1.5758e219652bep-1, 0x1.886594af4f0d8p-3, 0x1.886594af4f0d8p-4,
        0x0p+0,               0x1.b972474538ef3p-1, -0x1.77ea87c8b6bd9p-4,
        0x1.19efe5d6890e3p-1};
    const std::vector<double> pinned_samples = {
        0x1.ad15fd9846b34p-1, 0x1.cfe93ef35ad6p+0, 0x1.cfe93ef35ad6p+0,
        0x1.eb47e216e0ed2p-4};
    for (const int threads : omp_team::sizes()) {
        omp_team::Guard team(threads);
        NoisyCliffordSimulator a(spec, 2024);
        NoisyCliffordSimulator b(spec, 2024);
        EXPECT_EQ(a.termExpectations(circuit, ham, 40), pinned_terms)
            << threads << " threads";
        EXPECT_EQ(b.energySamples(circuit, ham, 4), pinned_samples)
            << threads << " threads";
    }
    const auto values = referenceValues(circuit, ham, spec, 2024, 40);
    EXPECT_EQ(referenceTermExpectations(values, ham, spec), pinned_terms);
}

TEST(PauliFrame, TrippedCancelTokenStillThrows)
{
    const Circuit circuit = randomCircuit(8, 40, 5);
    const Hamiltonian ham = mixedHamiltonian(circuit, 6);
    CancelToken token;
    token.cancel();
    CancelScope scope(&token);
    for (const int threads : omp_team::sizes()) {
        omp_team::Guard team(threads);
        NoisyCliffordSimulator sim(fullSpec(), 3);
        EXPECT_THROW(sim.energySamples(circuit, ham, 16), CancelledError);
        EXPECT_THROW(sim.termExpectations(circuit, ham, 16), CancelledError);
    }
}
