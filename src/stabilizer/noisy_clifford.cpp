#include "stabilizer/noisy_clifford.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/stats.hpp"
#include "noise/noise_model.hpp"
#include "stabilizer/pauli_frame.hpp"
#include "vqa/fault.hpp"

namespace eftvqa {

namespace {

/** True when some gate draws a random outcome mid-circuit. */
bool
drawsOutcomes(const Circuit &circuit)
{
    return std::any_of(circuit.gates().begin(), circuit.gates().end(),
                       [](const Gate &g) {
                           return g.type == GateType::Measure ||
                                  g.type == GateType::Reset;
                       });
}

/**
 * The one noisy-execution loop, for a Tableau or a PauliFrame target.
 * It fixes the noise-draw order: per ASAP layer, each gate and then its
 * channel, then the layer's idle qubits in index order. The schedule,
 * with the channel that follows each gate, is built once per farm run
 * and shared read-only by every thread.
 */
class ScheduleWalker
{
  public:
    ScheduleWalker(const Circuit &circuit, const CliffordNoiseSpec &spec)
        : spec_(spec)
    {
        // Bucket gates by ASAP level: the program-order gate list is NOT
        // level-sorted (e.g. the FCHE entangler starts a new low-level
        // chain after a deep one).
        std::vector<size_t> qubit_level(circuit.nQubits(), 0);
        for (const Gate &g : circuit.gates()) {
            size_t lvl = qubit_level[g.q0];
            if (g.isTwoQubit())
                lvl = std::max(lvl, qubit_level[g.q1]);
            qubit_level[g.q0] = lvl + 1;
            if (g.isTwoQubit())
                qubit_level[g.q1] = lvl + 1;
            if (layers_.size() <= lvl)
                layers_.resize(lvl + 1);
            layers_[lvl].push_back({&g, channelAfter(g)});
        }

        // Idle lists stay empty when the idle channel is off, so no
        // trajectory draws for it.
        idle_.resize(layers_.size());
        if (spec.idle.px + spec.idle.py + spec.idle.pz <= 0.0)
            return;
        std::vector<bool> busy(circuit.nQubits());
        for (size_t l = 0; l < layers_.size(); ++l) {
            std::fill(busy.begin(), busy.end(), false);
            for (const Step &step : layers_[l]) {
                busy[step.gate->q0] = true;
                if (step.gate->isTwoQubit())
                    busy[step.gate->q1] = true;
            }
            for (size_t q = 0; q < busy.size(); ++q)
                if (!busy[q])
                    idle_[l].push_back(q);
        }
    }

    /** One noisy execution of the circuit into @p t on stream @p rng. */
    template <class Target>
    void
    run(Target &t, Rng &rng) const
    {
        t.setZeroState();
        for (size_t l = 0; l < layers_.size(); ++l) {
            for (const Step &step : layers_[l]) {
                const Gate &g = *step.gate;
                t.applyGate(g, rng);
                switch (step.channel) {
                  case Channel::one_qubit:
                    applyChannel(t, spec_.one_qubit, g.q0, rng);
                    break;
                  case Channel::rotation:
                    applyChannel(t, spec_.rotation, g.q0, rng);
                    break;
                  case Channel::two_qubit:
                    applyTwoQubitDepol(t, g.q0, g.q1, rng);
                    break;
                  case Channel::none: break;
                }
            }
            for (size_t q : idle_[l])
                applyChannel(t, spec_.idle, q, rng);
        }
    }

  private:
    enum class Channel : uint8_t { none, one_qubit, rotation, two_qubit };

    struct Step
    {
        const Gate *gate;
        Channel channel;
    };

    const CliffordNoiseSpec &spec_;
    std::vector<std::vector<Step>> layers_;
    std::vector<std::vector<size_t>> idle_; ///< ascending, per layer

    /** The channel drawn after @p g; none draws nothing. */
    Channel
    channelAfter(const Gate &g) const
    {
        if (isRotationType(g.type))
            return Channel::rotation;
        if (g.isTwoQubit())
            return spec_.two_qubit_depol > 0.0 ? Channel::two_qubit
                                               : Channel::none;
        if (g.type == GateType::I || g.type == GateType::Measure ||
            g.type == GateType::Reset)
            return Channel::none;
        return Channel::one_qubit;
    }

    template <class Target>
    static void
    applyChannel(Target &t, const PauliChannel &ch, size_t q, Rng &rng)
    {
        const double u = rng.uniform();
        if (u < ch.px)
            t.x(q);
        else if (u < ch.px + ch.py)
            t.y(q);
        else if (u < ch.px + ch.py + ch.pz)
            t.z(q);
    }

    template <class Target>
    void
    applyTwoQubitDepol(Target &t, size_t q0, size_t q1, Rng &rng) const
    {
        if (!rng.bernoulli(spec_.two_qubit_depol))
            return;
        // Uniform over the 15 non-identity two-qubit Paulis.
        const uint64_t idx = rng.uniformInt(15) + 1;
        auto apply_single = [&](uint64_t code, size_t q) {
            switch (code) {
              case 1: t.x(q); break;
              case 2: t.y(q); break;
              case 3: t.z(q); break;
              default: break;
            }
        };
        apply_single(idx & 3, q0);
        apply_single((idx >> 2) & 3, q1);
    }
};

/**
 * A trajectory replayed on a full tableau, O(n) per gate. Circuits that
 * carry Measure or Reset need it: their outcomes draw from the
 * trajectory's stream.
 */
struct TableauTrajectory
{
    const ScheduleWalker &walk;
    const std::vector<PauliTerm> &terms;
    Tableau t;

    void run(Rng &rng) { walk.run(t, rng); }
    int value(size_t j) const { return t.expectation(terms[j].op); }
};

/**
 * A trajectory as a Pauli frame over one shared ideal tableau run, O(1)
 * per gate: <T_j> is the ideal value, negated when the frame
 * anticommutes with T_j. Pauli errors only flip signs, so a term that
 * is 0 ideally is 0 in every trajectory.
 */
struct FrameTrajectory
{
    const ScheduleWalker &walk;
    const std::vector<PauliTerm> &terms;
    const std::vector<int> &ideal;
    PauliFrame f;

    void run(Rng &rng) { walk.run(f, rng); }
    int
    value(size_t j) const
    {
        const int v = ideal[j];
        return v != 0 && f.anticommutes(terms[j].op) ? -v : v;
    }
};

/**
 * Calls @p farm with the per-thread trajectory prototype @p circuit
 * needs: a frame over one ideal tableau run when no gate draws an
 * outcome, else a full tableau. Each thread copies the prototype.
 */
template <class Farm>
void
withTrajectory(const Circuit &circuit, const ScheduleWalker &walk,
               const Hamiltonian &ham, Farm &&farm)
{
    const auto &terms = ham.terms();
    if (drawsOutcomes(circuit)) {
        farm(TableauTrajectory{walk, terms, Tableau(circuit.nQubits())});
        return;
    }
    Tableau ideal(circuit.nQubits());
    Rng no_draws; // no gate of a Measure/Reset-free circuit draws
    ideal.run(circuit, no_draws);
    std::vector<int> ideal_values(terms.size());
    for (size_t j = 0; j < terms.size(); ++j)
        ideal_values[j] = ideal.expectation(terms[j].op);
    farm(FrameTrajectory{walk, terms, ideal_values,
                         PauliFrame(circuit.nQubits())});
}

} // namespace

NoisyCliffordSimulator::NoisyCliffordSimulator(CliffordNoiseSpec spec,
                                               uint64_t seed)
    : spec_(spec), rng_(seed)
{
}

Tableau
NoisyCliffordSimulator::runTrajectory(const Circuit &circuit)
{
    Tableau t(circuit.nQubits());
    ScheduleWalker(circuit, spec_).run(t, rng_);
    return t;
}

std::vector<double>
NoisyCliffordSimulator::dampingTable(const Hamiltonian &ham) const
{
    const auto &terms = ham.terms();
    std::vector<double> damping(terms.size(), 1.0);
    if (spec_.meas_flip > 0.0)
        for (size_t j = 0; j < terms.size(); ++j)
            damping[j] = readoutDampingFactor(spec_.meas_flip, terms[j].op);
    return damping;
}

double
NoisyCliffordSimulator::energy(const Circuit &circuit, const Hamiltonian &ham,
                               size_t trajectories)
{
    return mean(energySamples(circuit, ham, trajectories));
}

std::vector<double>
NoisyCliffordSimulator::energySamples(const Circuit &circuit,
                                      const Hamiltonian &ham,
                                      size_t trajectories)
{
    if (trajectories == 0)
        throw std::invalid_argument("energySamples: need trajectories > 0");
    if (!circuit.isClifford())
        throw std::invalid_argument(
            "energySamples: circuit must be Clifford (angles in pi/2 Z)");

    const ScheduleWalker walk(circuit, spec_);
    const std::vector<double> damping = dampingTable(ham);
    const auto &terms = ham.terms();
    std::vector<Rng> streams = rng_.forkStreams(trajectories);
    std::vector<double> samples(trajectories, 0.0);

    // Soft-deadline / client-disconnect seam: the engine publishes the
    // cell's CancelToken via CancelScope before calling in here.
    // Throws are forbidden inside the OpenMP region, so trajectories
    // poll non-throwingly and skip remaining work; the checkpoint after
    // the region raises on the calling thread. A partially-skipped farm
    // never returns — cancellation always ends in the throw below.
    const CancelToken *cancel = activeCancelToken();

    // samples[k] depends only on stream k, so the farm is bit-identical
    // to the serial sweep no matter how trajectories land on threads.
    withTrajectory(circuit, walk, ham, [&](const auto &prototype) {
#ifdef _OPENMP
#pragma omp parallel if (trajectories > 1)
#endif
        {
            auto traj = prototype;
#ifdef _OPENMP
#pragma omp for schedule(static)
#endif
            for (int64_t sk = 0; sk < static_cast<int64_t>(trajectories);
                 ++sk) {
                if (cancel && (cancel->cancelled() || cancel->expired()))
                    continue;
                const auto k = static_cast<size_t>(sk);
                traj.run(streams[k]);
                double total = 0.0;
                for (size_t j = 0; j < terms.size(); ++j) {
                    const int ev = traj.value(j);
                    if (ev != 0)
                        total += terms[j].coefficient *
                                 static_cast<double>(ev) * damping[j];
                }
                samples[k] = total;
            }
        }
    });
    cancelCheckpoint();
    return samples;
}

std::vector<double>
NoisyCliffordSimulator::termExpectations(const Circuit &circuit,
                                         const Hamiltonian &ham,
                                         size_t trajectories)
{
    if (trajectories == 0)
        throw std::invalid_argument(
            "termExpectations: need trajectories > 0");
    if (!circuit.isClifford())
        throw std::invalid_argument(
            "termExpectations: circuit must be Clifford");

    const ScheduleWalker walk(circuit, spec_);
    const auto &terms = ham.terms();
    std::vector<Rng> streams = rng_.forkStreams(trajectories);

    // Same cancellation discipline as energySamples: non-throwing polls
    // inside the region, one throwing checkpoint after it.
    const CancelToken *cancel = activeCancelToken();

    // Per-term tallies are integer sums of {-1, 0, +1} outcomes, so the
    // cross-thread reduction is exactly associative: any merge order
    // produces the same bits as the serial trajectory-index-order sum.
    std::vector<int64_t> acc(terms.size(), 0);
    withTrajectory(circuit, walk, ham, [&](const auto &prototype) {
#ifdef _OPENMP
#pragma omp parallel if (trajectories > 1)
#endif
        {
            auto traj = prototype;
            std::vector<int64_t> local(terms.size(), 0);
#ifdef _OPENMP
#pragma omp for schedule(static) nowait
#endif
            for (int64_t sk = 0; sk < static_cast<int64_t>(trajectories);
                 ++sk) {
                if (cancel && (cancel->cancelled() || cancel->expired()))
                    continue;
                const auto k = static_cast<size_t>(sk);
                traj.run(streams[k]);
                for (size_t j = 0; j < terms.size(); ++j)
                    local[j] += traj.value(j);
            }
#ifdef _OPENMP
#pragma omp critical
#endif
            for (size_t j = 0; j < terms.size(); ++j)
                acc[j] += local[j];
        }
    });
    cancelCheckpoint();

    const std::vector<double> damping = dampingTable(ham);
    const double inv = 1.0 / static_cast<double>(trajectories);
    std::vector<double> out(terms.size(), 0.0);
    for (size_t j = 0; j < terms.size(); ++j)
        out[j] = static_cast<double>(acc[j]) * inv * damping[j];
    return out;
}

double
NoisyCliffordSimulator::idealEnergy(const Circuit &circuit,
                                    const Hamiltonian &ham)
{
    Tableau t(circuit.nQubits());
    Rng rng(1); // measurements (if any) would consume randomness
    t.run(circuit, rng);
    return t.energy(ham);
}

} // namespace eftvqa
