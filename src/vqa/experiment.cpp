#include "vqa/experiment.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

namespace eftvqa {

// --------------------------------------------------------------------
// RegimeSpec
// --------------------------------------------------------------------

RegimeSpec
RegimeSpec::ideal()
{
    RegimeSpec r;
    r.name = "ideal";
    return r;
}

RegimeSpec
RegimeSpec::idealTableau(uint64_t trajectory_seed)
{
    RegimeSpec r;
    r.name = "ideal-tableau";
    r.backend = sim::BackendKind::Tableau;
    sim::NoiseModel noise;
    noise.clifford = CliffordNoiseSpec::ideal();
    noise.trajectories = 1;
    noise.seed = trajectory_seed;
    r.noise = noise;
    r.trajectories = 1;
    return r;
}

RegimeSpec
RegimeSpec::tableau(const CliffordNoiseSpec &spec, size_t trajectories,
                    uint64_t trajectory_seed, std::string name)
{
    RegimeSpec r;
    r.name = std::move(name);
    r.backend = sim::BackendKind::Tableau;
    sim::NoiseModel noise;
    noise.clifford = spec;
    noise.trajectories = trajectories;
    noise.seed = trajectory_seed;
    r.noise = noise;
    r.trajectories = static_cast<long long>(trajectories);
    return r;
}

RegimeSpec
RegimeSpec::nisqDensityMatrix(const NisqParams &params)
{
    RegimeSpec r;
    r.name = "nisq";
    r.backend = sim::BackendKind::DensityMatrix;
    r.noise = sim::NoiseModel::nisq(params);
    return r;
}

RegimeSpec
RegimeSpec::pqecDensityMatrix(const PqecParams &params)
{
    RegimeSpec r;
    r.name = "pqec";
    r.backend = sim::BackendKind::DensityMatrix;
    r.noise = sim::NoiseModel::pqec(params);
    return r;
}

RegimeSpec
RegimeSpec::nisqTableau(size_t trajectories, uint64_t trajectory_seed,
                        const NisqParams &params)
{
    return tableau(nisqCliffordSpec(params), trajectories,
                   trajectory_seed, "nisq");
}

RegimeSpec
RegimeSpec::pqecTableau(size_t trajectories, uint64_t trajectory_seed,
                        const PqecParams &params)
{
    return tableau(pqecCliffordSpec(params), trajectories,
                   trajectory_seed, "pqec");
}

RegimeSpec
RegimeSpec::named(std::string new_name) const
{
    RegimeSpec r = *this;
    r.name = std::move(new_name);
    return r;
}

uint64_t
RegimeSpec::key() const
{
    uint64_t h = 0xCBF29CE484222325ull;
    auto mix = [&h](uint64_t v) { h = detail::hashCombine(h, v); };
    auto mixd = [&mix](double v) { mix(std::bit_cast<uint64_t>(v)); };
    auto mixch = [&mixd](const PauliChannel &ch) {
        mixd(ch.px);
        mixd(ch.py);
        mixd(ch.pz);
    };
    mix(static_cast<uint64_t>(backend));
    mix(static_cast<uint64_t>(shots));
    mix(seed);
    mix(noise.has_value() ? 1 : 0);
    if (noise) {
        const sim::NoiseModel &nm = *noise;
        mixd(nm.dm.one_qubit_depol);
        mixd(nm.dm.two_qubit_depol);
        mixch(nm.dm.rotation);
        mixd(nm.dm.meas_flip);
        mix(nm.dm.use_relaxation ? 1 : 0);
        mixd(nm.dm.t1_ns);
        mixd(nm.dm.t2_ns);
        mixd(nm.dm.time_1q_ns);
        mixd(nm.dm.time_2q_ns);
        mixd(nm.dm.idle_depol);
        mixch(nm.clifford.one_qubit);
        mixd(nm.clifford.two_qubit_depol);
        mixch(nm.clifford.rotation);
        mixch(nm.clifford.idle);
        mixd(nm.clifford.meas_flip);
        mix(trajectories > 0 ? static_cast<uint64_t>(trajectories)
                             : nm.trajectories);
        mix(nm.seed);
    }
    // Density-matrix results, noisy or not, depend on the stream
    // kernels' float order: stores never resume across a kernel
    // generation. Keep this the last mix: earlier, it would move every
    // stored noisy density-matrix key.
    if (sim::canRunDensityMatrix(backend, noise ? &*noise : nullptr))
        mix(kNoisyDmKernelVersion);
    return h;
}

EstimationConfig
RegimeSpec::estimationConfig() const
{
    EstimationConfig config;
    config.backend = backend;
    config.noise = noise;
    if (config.noise && trajectories > 0)
        config.noise->trajectories = static_cast<size_t>(trajectories);
    config.shots = shots;
    config.seed = seed;
    return config;
}

void
RegimeSpec::validate() const
{
    if (name.empty())
        throw std::invalid_argument(
            "RegimeSpec.name: must be non-empty (regimes are addressed "
            "by name in specs and reports)");
    if (shots < 0)
        throw std::invalid_argument(
            "RegimeSpec.shots: must be >= 0 (got " +
            std::to_string(shots) + "); 0 selects exact expectations");
    if (trajectories < 0)
        throw std::invalid_argument(
            "RegimeSpec.trajectories: must be >= 0 (got " +
            std::to_string(trajectories) +
            "); 0 keeps the noise model's trajectory count");
    if (noise)
        noise->dm.validate();
}

// --------------------------------------------------------------------
// ExperimentSpec
// --------------------------------------------------------------------

bool
ExperimentSpec::hasRegime(std::string_view name) const
{
    for (const RegimeSpec &r : regimes)
        if (r.name == name)
            return true;
    return false;
}

const RegimeSpec &
ExperimentSpec::regime(std::string_view name) const
{
    for (const RegimeSpec &r : regimes)
        if (r.name == name)
            return r;
    std::string known;
    for (const RegimeSpec &r : regimes)
        known += (known.empty() ? "" : ", ") + r.name;
    throw std::invalid_argument("ExperimentSpec: no regime named '" +
                                std::string(name) + "' (known: " +
                                (known.empty() ? "<none>" : known) + ")");
}

void
ExperimentSpec::validate() const
{
    if (ansatz.nQubits() != hamiltonian.nQubits())
        throw std::invalid_argument(
            "ExperimentSpec.ansatz: width " +
            std::to_string(ansatz.nQubits()) +
            " does not match hamiltonian width " +
            std::to_string(hamiltonian.nQubits()));
    for (size_t i = 0; i < regimes.size(); ++i) {
        regimes[i].validate();
        for (size_t j = i + 1; j < regimes.size(); ++j)
            if (regimes[i].name == regimes[j].name)
                throw std::invalid_argument(
                    "ExperimentSpec.regimes: duplicate regime name '" +
                    regimes[i].name + "' (names must be unique)");
    }
    genetic.validate();
    checkWorkerCount("ExperimentSpec.executor_threads", executor_threads);
}

ExperimentSpec
ExperimentSpec::nisqVsPqecDensityMatrix(Hamiltonian ham, Circuit ansatz)
{
    ExperimentSpec spec;
    spec.hamiltonian = std::move(ham);
    spec.ansatz = std::move(ansatz);
    spec.regimes = {RegimeSpec::ideal(), RegimeSpec::nisqDensityMatrix(),
                    RegimeSpec::pqecDensityMatrix()};
    return spec;
}

ExperimentSpec
ExperimentSpec::nisqVsPqecTableau(Hamiltonian ham, Circuit ansatz,
                                  size_t trajectories,
                                  const GeneticConfig &genetic)
{
    ExperimentSpec spec;
    spec.hamiltonian = std::move(ham);
    spec.ansatz = std::move(ansatz);
    spec.regimes = {RegimeSpec::nisqTableau(trajectories),
                    RegimeSpec::pqecTableau(trajectories)};
    spec.genetic = genetic;
    return spec;
}

// --------------------------------------------------------------------
// ExperimentSession
// --------------------------------------------------------------------

ExperimentSession::ExperimentSession(ExperimentSpec spec)
    : ExperimentSession(std::move(spec), nullptr)
{
}

ExperimentSession::ExperimentSession(
    ExperimentSpec spec, std::shared_ptr<SharedEnergyCache> shared_cache)
    : spec_(std::move(spec)), ham_hash_(spec_.hamiltonian.contentHash()),
      cache_(std::move(shared_cache)), pool_(spec_.executor_threads)
{
    spec_.validate();
    if (cache_ && spec_.cache_capacity == 0)
        throw std::invalid_argument(
            "ExperimentSpec.cache_capacity: must be > 0 when attaching an "
            "external cache (a session with caching off would ignore "
            "it)");
    if (!cache_ && spec_.cache_capacity > 0)
        cache_ = std::make_shared<SharedEnergyCache>(spec_.cache_capacity);
}

ExperimentSession::~ExperimentSession()
{
    // The pool member joins its workers on destruction; waiting here
    // keeps the engines alive until every submitted task has run.
    waitIdle();
}

ExperimentSession::EngineSlot &
ExperimentSession::slotFor(const RegimeSpec &regime)
{
    regime.validate();
    const uint64_t k = regime.key();
    std::lock_guard<std::mutex> lock(engines_mutex_);
    const auto it = engines_.find(k);
    if (it != engines_.end())
        return *it->second;

    auto slot = std::make_unique<EngineSlot>();
    slot->engine = std::make_unique<EstimationEngine>(
        spec_.hamiltonian, regime.estimationConfig());
    if (cache_)
        slot->engine->attachSharedCache(
            cache_, detail::hashCombine(ham_hash_, k));
    if (cancel_)
        slot->engine->setCancelToken(cancel_);
    return *engines_.emplace(k, std::move(slot)).first->second;
}

void
ExperimentSession::setCancelToken(std::shared_ptr<const CancelToken> token)
{
    std::lock_guard<std::mutex> lock(engines_mutex_);
    cancel_ = std::move(token);
    for (auto &[key, slot] : engines_)
        slot->engine->setCancelToken(cancel_);
}

EstimationEngine &
ExperimentSession::engine(const RegimeSpec &regime)
{
    return *slotFor(regime).engine;
}

EstimationEngine &
ExperimentSession::engine(std::string_view regime_name)
{
    return engine(spec_.regime(regime_name));
}

size_t
ExperimentSession::engineCount() const
{
    std::lock_guard<std::mutex> lock(engines_mutex_);
    return engines_.size();
}

void
ExperimentSession::resetEngines()
{
    waitIdle();
    std::lock_guard<std::mutex> lock(engines_mutex_);
    engines_.clear();
}

double
ExperimentSession::energy(const RegimeSpec &regime, const Circuit &bound)
{
    EngineSlot &slot = slotFor(regime);
    std::lock_guard<std::mutex> lock(slot.mutex);
    return slot.engine->energy(bound);
}

std::vector<double>
ExperimentSession::energies(const RegimeSpec &regime,
                            std::span<const Circuit> bound)
{
    EngineSlot &slot = slotFor(regime);
    std::lock_guard<std::mutex> lock(slot.mutex);
    return slot.engine->energies(bound);
}

std::vector<double>
ExperimentSession::termExpectations(const RegimeSpec &regime,
                                    const Circuit &bound)
{
    EngineSlot &slot = slotFor(regime);
    std::lock_guard<std::mutex> lock(slot.mutex);
    return slot.engine->termExpectations(bound);
}

EnergyEvaluator
ExperimentSession::evaluator(const RegimeSpec &regime)
{
    EngineSlot &slot = slotFor(regime);
    return [&slot](const Circuit &bound) {
        std::lock_guard<std::mutex> lock(slot.mutex);
        return slot.engine->energy(bound);
    };
}

// ---- executor ------------------------------------------------------

void
ExperimentSession::enqueueOnSlot(EngineSlot &slot,
                                 std::function<void()> task)
{
    // Account the submission before it becomes visible anywhere:
    // waitIdle() (and through it resetEngines()/the destructor) must
    // not observe an idle executor while a task sits in a slot queue
    // whose drain job has not reached the pool yet.
    {
        std::lock_guard<std::mutex> lock(idle_mutex_);
        ++outstanding_;
    }
    bool start_drain = false;
    {
        std::lock_guard<std::mutex> lock(slot.queue_mutex);
        slot.pending.push_back(std::move(task));
        if (!slot.draining) {
            slot.draining = true;
            start_drain = true;
        }
    }
    // One drain job per slot at a time: tasks of a regime execute in
    // submission order (the bit-identity contract), regimes overlap.
    if (start_drain)
        pool_.enqueue([this, &slot] { drainSlot(slot); });
}

void
ExperimentSession::drainSlot(EngineSlot &slot)
{
    for (;;) {
        std::function<void()> task;
        {
            std::lock_guard<std::mutex> lock(slot.queue_mutex);
            if (slot.pending.empty()) {
                slot.draining = false;
                return;
            }
            task = std::move(slot.pending.front());
            slot.pending.pop_front();
        }
        task(); // packaged_task routes exceptions into the future
        {
            std::lock_guard<std::mutex> lock(idle_mutex_);
            --outstanding_;
            if (outstanding_ == 0)
                idle_cv_.notify_all();
        }
    }
}

void
ExperimentSession::waitIdle()
{
    {
        std::unique_lock<std::mutex> lock(idle_mutex_);
        idle_cv_.wait(lock, [this] { return outstanding_ == 0; });
    }
    // outstanding_ drops inside the drain job; the pool wait covers
    // the tail of that job (it still touches its slot's queue after
    // the last task), so callers may tear slots down afterwards.
    pool_.waitIdle();
}

std::future<double>
ExperimentSession::submit(const RegimeSpec &regime, Circuit bound)
{
    EngineSlot &slot = slotFor(regime);
    auto task = std::make_shared<std::packaged_task<double()>>(
        [&slot, bound = std::move(bound)] {
            std::lock_guard<std::mutex> lock(slot.mutex);
            return slot.engine->energy(bound);
        });
    std::future<double> future = task->get_future();
    enqueueOnSlot(slot, [task] { (*task)(); });
    return future;
}

std::future<std::vector<double>>
ExperimentSession::submit(const RegimeSpec &regime,
                          std::vector<Circuit> population)
{
    EngineSlot &slot = slotFor(regime);
    auto task =
        std::make_shared<std::packaged_task<std::vector<double>()>>(
            [&slot, population = std::move(population)] {
                std::lock_guard<std::mutex> lock(slot.mutex);
                return slot.engine->energies(population);
            });
    std::future<std::vector<double>> future = task->get_future();
    enqueueOnSlot(slot, [task] { (*task)(); });
    return future;
}

// ---- paper workflows -----------------------------------------------

VqeResult
ExperimentSession::minimize(const RegimeSpec &regime, Optimizer &optimizer,
                            std::vector<double> initial, size_t max_evals)
{
    return runVqe(spec_.ansatz, evaluator(regime), optimizer,
                  std::move(initial), max_evals);
}

VqeResult
ExperimentSession::minimizeBestOf(const RegimeSpec &regime,
                                  Optimizer &optimizer, size_t max_evals,
                                  size_t attempts, uint64_t seed)
{
    return runBestOf(spec_.ansatz, evaluator(regime), optimizer, max_evals,
                     attempts, seed);
}

namespace {

/** Population objective: bind every genome and evaluate through the
 *  engine's deduplicating, clone-parallel batch entry point. */
DiscreteBatchObjectiveFn
cliffordBatchObjective(EstimationEngine &engine, const Circuit &ansatz)
{
    return [&engine, &ansatz](const std::vector<std::vector<int>> &pop) {
        std::vector<Circuit> bound;
        bound.reserve(pop.size());
        for (const auto &angles : pop)
            bound.push_back(ansatz.bind(cliffordAngles(angles)));
        return engine.energies(bound);
    };
}

} // namespace

CliffordVqeResult
ExperimentSession::cliffordVqe(const RegimeSpec &regime)
{
    return cliffordVqe(regime, spec_.ansatz);
}

CliffordVqeResult
ExperimentSession::cliffordVqe(const RegimeSpec &regime,
                               const Circuit &ansatz)
{
    const size_t n_params = ansatz.nParameters();
    if (n_params == 0)
        throw std::invalid_argument(
            "ExperimentSession::cliffordVqe: ansatz has no parameters");

    // GA engine regime: trajectory streams seeded from the GA seed —
    // the exact derivation of the legacy runCliffordVqe() free
    // function, so this path reproduces its numbers bit for bit.
    RegimeSpec ga = regime.named(regime.name + "#ga");
    if (ga.noise)
        ga.noise->seed = spec_.genetic.seed ^ 0xA5A5A5A5ull;

    DiscreteResult opt;
    {
        EngineSlot &slot = slotFor(ga);
        std::lock_guard<std::mutex> lock(slot.mutex);
        opt = geneticMinimizeBatch(
            cliffordBatchObjective(*slot.engine, ansatz), n_params, 4,
            spec_.genetic);
    }

    CliffordVqeResult result;
    result.energy = opt.best_value;
    result.angles = opt.best_params;
    result.evaluations = opt.evaluations;
    result.ideal_energy =
        energy(RegimeSpec::idealTableau(spec_.genetic.seed),
               ansatz.bind(cliffordAngles(opt.best_params)));
    return result;
}

double
ExperimentSession::cliffordReference()
{
    return cliffordReference(spec_.ansatz);
}

double
ExperimentSession::cliffordReference(const Circuit &ansatz)
{
    if (ansatz.nParameters() == 0)
        throw std::invalid_argument(
            "ExperimentSession::cliffordReference: ansatz has no "
            "parameters");
    // Same regime (and hence engine + cache scope) as the ideal-energy
    // re-evaluation inside cliffordVqe(): the reference GA and the
    // winners' ideal energies share one engine and one cache.
    EngineSlot &slot =
        slotFor(RegimeSpec::idealTableau(spec_.genetic.seed));
    std::lock_guard<std::mutex> lock(slot.mutex);
    const DiscreteResult opt = geneticMinimizeBatch(
        cliffordBatchObjective(*slot.engine, ansatz),
        ansatz.nParameters(), 4, spec_.genetic);
    return opt.best_value;
}

RegimeComparison
ExperimentSession::compare(const RegimeSpec &regime_a,
                           const Circuit &bound_a,
                           const RegimeSpec &regime_b,
                           const Circuit &bound_b, double e0,
                           double gap_floor)
{
    RegimeComparison cmp;
    cmp.energy_a = energy(regime_a, bound_a);
    cmp.energy_b = energy(regime_b, bound_b);
    cmp.gamma = relativeImprovement(e0, cmp.energy_a, cmp.energy_b,
                                    gap_floor);
    return cmp;
}

EnergyEvaluator
sessionEvaluator(const Hamiltonian &ham, const RegimeSpec &regime)
{
    ExperimentSpec spec;
    spec.hamiltonian = ham;
    spec.ansatz = Circuit(ham.nQubits());
    spec.regimes = {regime};
    auto session = std::make_shared<ExperimentSession>(std::move(spec));
    return [session, regime](const Circuit &bound) {
        return session->energy(regime, bound);
    };
}

} // namespace eftvqa
