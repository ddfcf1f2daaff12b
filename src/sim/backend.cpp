#include "sim/backend.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sim/compiled_circuit.hpp"
#include "sim/density_matrix.hpp"
#include "sim/statevector.hpp"
#include "stabilizer/noisy_clifford.hpp"
#include "stabilizer/tableau.hpp"

namespace eftvqa {
namespace sim {

void
Backend::prepareCompiled(const CompiledCircuit &compiled)
{
    prepare(compiled.source());
}

std::string
backendKindName(BackendKind kind)
{
    switch (kind) {
      case BackendKind::Auto:          return "auto";
      case BackendKind::Statevector:   return "statevector";
      case BackendKind::DensityMatrix: return "density_matrix";
      case BackendKind::Tableau:       return "tableau";
    }
    return "unknown";
}

namespace {

bool
channelIsZero(const PauliChannel &ch)
{
    return ch.px + ch.py + ch.pz <= 0.0;
}

} // namespace

bool
NoiseModel::hasDmNoise() const
{
    return dm.one_qubit_depol > 0.0 || dm.two_qubit_depol > 0.0 ||
           !channelIsZero(dm.rotation) || dm.meas_flip > 0.0 ||
           dm.use_relaxation || dm.idle_depol > 0.0;
}

bool
NoiseModel::hasCliffordNoise() const
{
    return !channelIsZero(clifford.one_qubit) ||
           clifford.two_qubit_depol > 0.0 ||
           !channelIsZero(clifford.rotation) ||
           !channelIsZero(clifford.idle) || clifford.meas_flip > 0.0;
}

bool
NoiseModel::isNoiseless() const
{
    return !hasDmNoise() && !hasCliffordNoise();
}

NoiseModel
NoiseModel::nisq(const NisqParams &params)
{
    NoiseModel model;
    model.dm = nisqDmSpec(params);
    model.clifford = nisqCliffordSpec(params);
    return model;
}

NoiseModel
NoiseModel::pqec(const PqecParams &params)
{
    NoiseModel model;
    model.dm = pqecDmSpec(params);
    model.clifford = pqecCliffordSpec(params);
    return model;
}

double
Backend::energy(const Hamiltonian &ham) const
{
    const std::vector<double> vals = expectationBatch(ham);
    const auto &terms = ham.terms();
    double total = 0.0;
    for (size_t k = 0; k < terms.size(); ++k)
        total += terms[k].coefficient * vals[k];
    return total;
}

namespace {

[[noreturn]] void
throwNotPrepared()
{
    throw std::logic_error("sim::Backend: no circuit prepared yet");
}

/**
 * Draw @p n_shots basis-state indices from a probability vector via its
 * CDF, then flip each readout bit independently with probability
 * @p meas_flip.
 */
std::vector<uint64_t>
sampleFromProbabilities(const std::vector<double> &probs, size_t n_qubits,
                        size_t n_shots, Rng &rng, double meas_flip)
{
    std::vector<double> cdf(probs.size());
    double total = 0.0;
    for (size_t i = 0; i < probs.size(); ++i) {
        total += std::max(0.0, probs[i]);
        cdf[i] = total;
    }
    if (total <= 0.0)
        throw std::runtime_error("sample: zero total probability");

    const size_t flip_bits = std::min<size_t>(n_qubits, 64);
    std::vector<uint64_t> shots(n_shots);
    for (auto &shot : shots) {
        const double u = rng.uniform() * total;
        const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
        uint64_t bits = static_cast<uint64_t>(
            std::min<std::ptrdiff_t>(it - cdf.begin(),
                                     static_cast<std::ptrdiff_t>(cdf.size()) - 1));
        if (meas_flip > 0.0)
            for (size_t q = 0; q < flip_bits; ++q)
                if (rng.bernoulli(meas_flip))
                    bits ^= uint64_t{1} << q;
        shot = bits;
    }
    return shots;
}

class StatevectorBackend final : public Backend
{
  public:
    explicit StatevectorBackend(size_t n_qubits) : psi_(n_qubits) {}

    BackendKind kind() const override { return BackendKind::Statevector; }
    size_t nQubits() const override { return psi_.nQubits(); }

    void
    prepare(const Circuit &circuit) override
    {
        psi_.setZeroState();
        psi_.run(circuit);
        prepared_ = true;
    }

    void
    prepareCompiled(const CompiledCircuit &compiled) override
    {
        psi_.setZeroState();
        psi_.runCompiled(compiled);
        prepared_ = true;
    }

    double
    expectation(const PauliString &p) const override
    {
        if (!prepared_)
            throwNotPrepared();
        return psi_.expectation(p);
    }

    std::vector<double>
    expectationBatch(const Hamiltonian &ham) const override
    {
        if (!prepared_)
            throwNotPrepared();
        return psi_.expectationBatch(ham);
    }

    std::vector<uint64_t>
    sample(size_t n_shots, Rng &rng) const override
    {
        if (!prepared_)
            throwNotPrepared();
        return sampleFromProbabilities(psi_.basisProbabilities(),
                                       psi_.nQubits(), n_shots, rng, 0.0);
    }

    std::unique_ptr<Backend>
    clone() const override
    {
        return std::make_unique<StatevectorBackend>(*this);
    }

  private:
    Statevector psi_;
    bool prepared_ = false;
};

class DensityMatrixBackend final : public Backend
{
  public:
    DensityMatrixBackend(size_t n_qubits, const NoiseModel *noise)
        : rho_(n_qubits), spec_(noise != nullptr ? noise->dm : DmNoiseSpec{})
    {
    }

    BackendKind kind() const override { return BackendKind::DensityMatrix; }
    size_t nQubits() const override { return rho_.nQubits(); }

    void
    prepare(const Circuit &circuit) override
    {
        if (circuit.nQubits() != rho_.nQubits())
            throw std::invalid_argument(
                "DensityMatrixBackend::prepare: width mismatch");
        // Noisy or not, one DmPass stream from |0..0> on the live
        // prefix: a spec without noise leaves only the gates' passes.
        rho_.runPassesFromZero(compileNoisyDmStream(circuit, spec_));
        prepared_ = true;
    }

    double
    expectation(const PauliString &p) const override
    {
        if (!prepared_)
            throwNotPrepared();
        return rho_.expectation(p) * readoutDampingFactor(spec_.meas_flip, p);
    }

    std::vector<double>
    expectationBatch(const Hamiltonian &ham) const override
    {
        if (!prepared_)
            throwNotPrepared();
        std::vector<double> vals = rho_.expectationBatch(ham);
        if (spec_.meas_flip > 0.0) {
            const std::vector<double> damping =
                readoutDampingByWeight(spec_.meas_flip, rho_.nQubits());
            const auto &terms = ham.terms();
            for (size_t k = 0; k < terms.size(); ++k)
                vals[k] *= damping[terms[k].op.weight()];
        }
        return vals;
    }

    std::vector<uint64_t>
    sample(size_t n_shots, Rng &rng) const override
    {
        if (!prepared_)
            throwNotPrepared();
        return sampleFromProbabilities(rho_.diagonalProbabilities(),
                                       rho_.nQubits(), n_shots, rng,
                                       spec_.meas_flip);
    }

    std::unique_ptr<Backend>
    clone() const override
    {
        return std::make_unique<DensityMatrixBackend>(*this);
    }

  private:
    DensityMatrix rho_;
    // Only the density-matrix half: a model carrying trajectory channels
    // alone leaves this spec noiseless. prepare() validates it, so the
    // queries below only ever see a meas_flip in [0, 1].
    DmNoiseSpec spec_;
    bool prepared_ = false;
};

class TableauBackend final : public Backend
{
  public:
    TableauBackend(size_t n_qubits, const NoiseModel *noise)
        : n_(n_qubits), tableau_(n_qubits),
          // Gate on the trajectory half only: a dm-only model would
          // otherwise burn `trajectories` identical noiseless runs.
          noisy_(noise != nullptr && noise->hasCliffordNoise()),
          trajectories_(noise != nullptr ? noise->trajectories : 1),
          seed_(noise != nullptr ? noise->seed : 0x5EEDC11FF0ull),
          sim_(noise != nullptr ? noise->clifford
                                : CliffordNoiseSpec::ideal(),
               noise != nullptr ? noise->seed : 0x5EEDC11FF0ull),
          circuit_(n_qubits)
    {
        if (noisy_ && trajectories_ == 0)
            throw std::invalid_argument(
                "TableauBackend: need trajectories > 0");
    }

    BackendKind kind() const override { return BackendKind::Tableau; }
    size_t nQubits() const override { return n_; }

    void
    prepare(const Circuit &circuit) override
    {
        if (circuit.nQubits() != n_)
            throw std::invalid_argument("TableauBackend: width mismatch");
        if (!circuit.isClifford())
            throw std::invalid_argument(
                "TableauBackend: circuit must be Clifford "
                "(rotation angles in pi/2 Z)");
        circuit_ = circuit;
        if (!noisy_) {
            tableau_.setZeroState();
            Rng rng(seed_ ^ 0xC0FFEEull); // measurement randomness only
            tableau_.run(circuit_, rng);
        }
        prepared_ = true;
    }

    double
    expectation(const PauliString &p) const override
    {
        if (!prepared_)
            throwNotPrepared();
        if (!noisy_)
            return static_cast<double>(tableau_.expectation(p));
        double acc = 0.0;
        for (size_t k = 0; k < trajectories_; ++k)
            acc += static_cast<double>(
                sim_.runTrajectory(circuit_).expectation(p));
        return acc / static_cast<double>(trajectories_) *
               readoutDampingFactor(sim_.spec().meas_flip, p);
    }

    std::vector<double>
    expectationBatch(const Hamiltonian &ham) const override
    {
        if (!prepared_)
            throwNotPrepared();
        if (!noisy_) {
            const auto &terms = ham.terms();
            std::vector<double> vals(terms.size());
            for (size_t k = 0; k < terms.size(); ++k)
                vals[k] =
                    static_cast<double>(tableau_.expectation(terms[k].op));
            return vals;
        }
        return sim_.termExpectations(circuit_, ham, trajectories_);
    }

    std::vector<uint64_t>
    sample(size_t n_shots, Rng &rng) const override
    {
        if (!prepared_)
            throwNotPrepared();
        const size_t bits = std::min<size_t>(n_, 64);
        const double flip = noisy_ ? sim_.spec().meas_flip : 0.0;
        std::vector<uint64_t> shots(n_shots);
        for (auto &shot : shots) {
            Tableau t = noisy_ ? sim_.runTrajectory(circuit_) : tableau_;
            uint64_t word = 0;
            for (size_t q = 0; q < bits; ++q) {
                int bit = t.measure(q, rng);
                if (flip > 0.0 && rng.bernoulli(flip))
                    bit ^= 1;
                if (bit)
                    word |= uint64_t{1} << q;
            }
            shot = word;
        }
        return shots;
    }

    std::unique_ptr<Backend>
    clone() const override
    {
        return std::make_unique<TableauBackend>(*this);
    }

  private:
    size_t n_;
    Tableau tableau_;
    bool noisy_;
    size_t trajectories_;
    uint64_t seed_;
    // Trajectory sampling consumes RNG state on const queries; the
    // Monte-Carlo stream is an implementation detail of the estimate.
    mutable NoisyCliffordSimulator sim_;
    Circuit circuit_;
    bool prepared_ = false;
};

/**
 * Deferred-dispatch wrapper returned for BackendKind::Auto: the
 * substrate is chosen per prepared circuit, so one Auto backend can hop
 * between tableau (Clifford parameter points) and dense simulation as
 * the circuit changes.
 */
class AutoBackend final : public Backend
{
  public:
    AutoBackend(size_t n_qubits, const NoiseModel *noise)
        : n_(n_qubits), has_noise_(noise != nullptr)
    {
        if (noise != nullptr)
            noise_ = *noise;
    }

    AutoBackend(const AutoBackend &other)
        : n_(other.n_), has_noise_(other.has_noise_), noise_(other.noise_),
          inner_(other.inner_ ? other.inner_->clone() : nullptr)
    {
    }

    BackendKind
    kind() const override
    {
        return inner_ ? inner_->kind() : BackendKind::Auto;
    }

    size_t nQubits() const override { return n_; }

    void
    prepare(const Circuit &circuit) override
    {
        inner_ = resolveInner(circuit);
        inner_->prepare(circuit);
    }

    void
    prepareCompiled(const CompiledCircuit &compiled) override
    {
        inner_ = resolveInner(compiled.source());
        inner_->prepareCompiled(compiled);
    }

    double
    expectation(const PauliString &p) const override
    {
        if (!inner_)
            throwNotPrepared();
        return inner_->expectation(p);
    }

    std::vector<double>
    expectationBatch(const Hamiltonian &ham) const override
    {
        if (!inner_)
            throwNotPrepared();
        return inner_->expectationBatch(ham);
    }

    std::vector<uint64_t>
    sample(size_t n_shots, Rng &rng) const override
    {
        if (!inner_)
            throwNotPrepared();
        return inner_->sample(n_shots, rng);
    }

    std::unique_ptr<Backend>
    clone() const override
    {
        return std::make_unique<AutoBackend>(*this);
    }

  private:
    size_t n_;
    bool has_noise_;
    NoiseModel noise_;
    std::unique_ptr<Backend> inner_;

    /** Re-resolve the substrate for a circuit, reusing the current
     *  inner backend when the kind is unchanged. */
    std::unique_ptr<Backend>
    resolveInner(const Circuit &circuit)
    {
        const NoiseModel *noise = has_noise_ ? &noise_ : nullptr;
        const BackendKind resolved =
            resolveBackendKind(BackendKind::Auto, circuit, noise);
        if (inner_ && inner_->kind() == resolved)
            return std::move(inner_);
        return makeBackend(resolved, n_, noise);
    }
};

} // namespace

BackendKind
resolveBackendKind(BackendKind requested, const Circuit &circuit,
                   const NoiseModel *noise)
{
    if (requested != BackendKind::Auto)
        return requested;
    if (circuit.isClifford()) {
        // A model with density-matrix channels but no trajectory
        // channels cannot be simulated on the tableau path — fall
        // through so the noise is actually applied.
        if (noise == nullptr || noise->hasCliffordNoise() ||
            !noise->hasDmNoise())
            return BackendKind::Tableau;
    }
    if (noise != nullptr && !noise->isNoiseless())
        return BackendKind::DensityMatrix;
    return BackendKind::Statevector;
}

bool
canRunDensityMatrix(BackendKind requested, const NoiseModel *noise)
{
    return requested == BackendKind::DensityMatrix ||
           (requested == BackendKind::Auto && noise != nullptr &&
            !noise->isNoiseless());
}

std::unique_ptr<Backend>
makeBackend(BackendKind kind, size_t n_qubits, const NoiseModel *noise)
{
    switch (kind) {
      case BackendKind::Auto:
        return std::make_unique<AutoBackend>(n_qubits, noise);
      case BackendKind::Statevector:
        if (noise != nullptr && !noise->isNoiseless())
            throw std::invalid_argument(
                "makeBackend: the statevector backend is noiseless-only; "
                "use DensityMatrix, Tableau, or Auto");
        return std::make_unique<StatevectorBackend>(n_qubits);
      case BackendKind::DensityMatrix:
        return std::make_unique<DensityMatrixBackend>(n_qubits, noise);
      case BackendKind::Tableau:
        return std::make_unique<TableauBackend>(n_qubits, noise);
    }
    throw std::invalid_argument("makeBackend: unknown backend kind");
}

} // namespace sim
} // namespace eftvqa
