#include "noise/noise_model.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "qec/magic/injection.hpp"
#include "qec/surface_code.hpp"

namespace eftvqa {

double
PqecParams::cliffordError() const
{
    return surfaceCodeLogicalErrorRate(distance, p_phys);
}

double
PqecParams::rzError() const
{
    return InjectionModel(distance, p_phys).injectedErrorRate();
}

CliffordNoiseSpec
nisqCliffordSpec(const NisqParams &params)
{
    CliffordNoiseSpec spec;
    spec.one_qubit = depolarizingPauliChannel(params.oneQubitError());
    spec.two_qubit_depol = params.cxError();
    // Rz is error-free in NISQ (virtual Z); Rx/Ry compile to physical
    // pulses, but in VQA circuits they are folded into the 1q budget.
    spec.rotation = depolarizingPauliChannel(params.oneQubitError());
    spec.idle = pauliTwirledRelaxation(params.t1_ns, params.t2_ns,
                                       params.time_2q_ns);
    spec.meas_flip = params.measError();
    return spec;
}

CliffordNoiseSpec
pqecCliffordSpec(const PqecParams &params)
{
    CliffordNoiseSpec spec;
    const double eps = params.cliffordError();
    spec.one_qubit = depolarizingPauliChannel(eps);
    spec.two_qubit_depol = eps;
    // The injected state's error is Z-biased (Lao & Criger), but the
    // consumption circuit (CNOT + measurement + conditional correction,
    // Fig 2C) propagates it onto the data qubit in all Pauli directions;
    // the stabilizer path therefore models the net rotation error as
    // depolarizing at the full injection rate.
    spec.rotation = depolarizingPauliChannel(params.rzError());
    spec.idle = depolarizingPauliChannel(params.memoryErrorPerCycle());
    spec.meas_flip = params.measError();
    return spec;
}

DmNoiseSpec
nisqDmSpec(const NisqParams &params)
{
    DmNoiseSpec spec;
    spec.one_qubit_depol = params.oneQubitError();
    spec.two_qubit_depol = params.cxError();
    spec.rotation = {}; // Rz error-free; biased channels unused in NISQ
    spec.meas_flip = params.measError();
    spec.use_relaxation = true;
    spec.t1_ns = params.t1_ns;
    spec.t2_ns = params.t2_ns;
    spec.time_1q_ns = params.time_1q_ns;
    spec.time_2q_ns = params.time_2q_ns;
    return spec;
}

DmNoiseSpec
pqecDmSpec(const PqecParams &params)
{
    DmNoiseSpec spec;
    const double eps = params.cliffordError();
    spec.one_qubit_depol = eps;
    spec.two_qubit_depol = eps;
    const double rz = params.rzError();
    spec.rotation.pz = 0.9 * rz;
    spec.rotation.px = 0.05 * rz;
    spec.rotation.py = 0.05 * rz;
    spec.meas_flip = params.measError();
    spec.idle_depol = params.memoryErrorPerCycle();
    return spec;
}

namespace {

[[noreturn]] void
specError(const std::string &field, const std::string &rule, double got)
{
    throw std::invalid_argument("DmNoiseSpec." + field + ": must be " +
                                rule + " (got " + std::to_string(got) +
                                ")");
}

} // namespace

void
DmNoiseSpec::validate() const
{
    const std::pair<const char *, double> probabilities[] = {
        {"one_qubit_depol", one_qubit_depol},
        {"two_qubit_depol", two_qubit_depol},
        {"rotation.px", rotation.px},
        {"rotation.py", rotation.py},
        {"rotation.pz", rotation.pz},
        {"meas_flip", meas_flip},
        {"idle_depol", idle_depol}};
    for (const auto &[field, p] : probabilities)
        if (!(p >= 0.0 && p <= 1.0))
            specError(field, "in [0, 1]", p);
    const double rotation_total = rotation.px + rotation.py + rotation.pz;
    if (rotation_total > 1.0)
        specError("rotation", "px + py + pz <= 1", rotation_total);
    if (!(time_1q_ns >= 0.0))
        specError("time_1q_ns", ">= 0", time_1q_ns);
    if (!(time_2q_ns >= 0.0))
        specError("time_2q_ns", ">= 0", time_2q_ns);
    if (!use_relaxation)
        return;
    if (!(t1_ns > 0.0))
        specError("t1_ns", "> 0 with use_relaxation", t1_ns);
    if (!(t2_ns > 0.0))
        specError("t2_ns", "> 0 with use_relaxation", t2_ns);
    // Same bound (and slack) as thermalRelaxationSuperop().
    if (t2_ns > 2.0 * t1_ns + 1e-12)
        specError("t2_ns", "<= 2 * t1_ns = " + std::to_string(2.0 * t1_ns),
                  t2_ns);
}

std::vector<DmPass>
compileNoisyDmStream(const Circuit &circuit, const DmNoiseSpec &spec)
{
    spec.validate();

    // ASAP layering for idle-noise insertion (mirrors the Clifford
    // path): a gate's level is one past the latest level on its qubits.
    const auto &gates = circuit.gates();
    const size_t n = circuit.nQubits();
    std::vector<size_t> qubit_level(n, 0);
    std::vector<std::vector<size_t>> by_level;
    for (size_t i = 0; i < gates.size(); ++i) {
        const Gate &g = gates[i];
        size_t lvl = qubit_level[g.q0];
        if (g.isTwoQubit())
            lvl = std::max(lvl, qubit_level[g.q1]);
        qubit_level[g.q0] = lvl + 1;
        if (g.isTwoQubit())
            qubit_level[g.q1] = lvl + 1;
        if (by_level.size() <= lvl)
            by_level.resize(lvl + 1);
        by_level[lvl].push_back(i);
    }

    // The handful of distinct channels, built once. A zero channel is
    // never folded.
    const auto pauli = [](const PauliChannel &ch) -> std::optional<Mat4> {
        if (ch.px + ch.py + ch.pz > 0.0)
            return pauliChannelSuperop(ch);
        return std::nullopt;
    };
    const auto relax = [&spec](double t) -> std::optional<Mat4> {
        if (spec.use_relaxation && t > 0.0)
            return thermalRelaxationSuperop(spec.t1_ns, spec.t2_ns, t);
        return std::nullopt;
    };
    const std::optional<Mat4> rotation = pauli(spec.rotation);
    const std::optional<Mat4> depol_1q =
        pauli(depolarizingPauliChannel(spec.one_qubit_depol));
    const std::optional<Mat4> idle_depol =
        pauli(depolarizingPauliChannel(spec.idle_depol));
    const std::optional<Mat4> relax_1q = relax(spec.time_1q_ns);
    const std::optional<Mat4> relax_2q = relax(spec.time_2q_ns);

    DmPassBuilder stream(n);
    const auto fold = [&stream](size_t q, const std::optional<Mat4> &ch) {
        if (ch)
            stream.channel(q, *ch);
    };
    // Same-level gates touch disjoint qubits, so walking a level's
    // gates in program order and its idle qubits after them preserves
    // every qubit's own order.
    std::vector<bool> busy(n);
    for (const auto &layer : by_level) {
        std::fill(busy.begin(), busy.end(), false);
        for (size_t i : layer) {
            const Gate &g = gates[i];
            busy[g.q0] = true;
            if (g.isTwoQubit()) {
                busy[g.q1] = true;
                stream.gate2q(g, spec.two_qubit_depol);
                fold(g.q0, relax_2q);
                fold(g.q1, relax_2q);
                continue;
            }
            stream.gate1q(g);
            if (isRotationType(g.type)) {
                fold(g.q0, rotation);
                fold(g.q0, relax_1q);
            } else if (g.type != GateType::I &&
                       g.type != GateType::Measure &&
                       g.type != GateType::Reset) {
                fold(g.q0, depol_1q);
                fold(g.q0, relax_1q);
            }
        }
        for (size_t q = 0; q < n; ++q) {
            if (busy[q])
                continue;
            fold(q, relax_2q);
            fold(q, idle_depol);
        }
    }
    return stream.finish();
}

namespace {

double
dampingForWeight(double meas_flip, size_t weight)
{
    return std::pow(1.0 - 2.0 * meas_flip, static_cast<double>(weight));
}

} // namespace

double
readoutDampingFactor(double meas_flip, const PauliString &op)
{
    if (meas_flip <= 0.0)
        return 1.0;
    return dampingForWeight(meas_flip, op.weight());
}

std::vector<double>
readoutDampingByWeight(double meas_flip, size_t n_qubits)
{
    std::vector<double> factors(n_qubits + 1, 1.0);
    if (meas_flip > 0.0)
        for (size_t w = 0; w <= n_qubits; ++w)
            factors[w] = dampingForWeight(meas_flip, w);
    return factors;
}

} // namespace eftvqa
