#include "vqa/estimation.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <exception>
#include <stdexcept>
#include <unordered_map>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "pauli/term_groups.hpp"

namespace eftvqa {

namespace detail {

std::vector<size_t>
allocateShotBudget(const std::vector<double> &weights, size_t total_budget)
{
    const size_t n = weights.size();
    std::vector<size_t> shots(n, 0);
    if (n == 0)
        return shots;
    if (total_budget <= n) {
        // Every group needs at least one shot to be estimable at all.
        shots.assign(n, 1);
        return shots;
    }
    double total_weight = 0.0;
    for (const double w : weights)
        total_weight += std::max(0.0, w);
    if (total_weight <= 0.0) {
        const size_t base = total_budget / n;
        const size_t rem = total_budget % n;
        for (size_t i = 0; i < n; ++i)
            shots[i] = base + (i < rem ? 1 : 0);
        return shots;
    }

    // Largest-remainder apportionment (deterministic: remainder
    // descending, index ascending on ties).
    size_t assigned = 0;
    std::vector<std::pair<double, size_t>> remainder(n);
    for (size_t i = 0; i < n; ++i) {
        const double ideal = static_cast<double>(total_budget) *
                             std::max(0.0, weights[i]) / total_weight;
        shots[i] = static_cast<size_t>(ideal);
        assigned += shots[i];
        remainder[i] = {ideal - static_cast<double>(shots[i]), i};
    }
    std::sort(remainder.begin(), remainder.end(),
              [](const auto &a, const auto &b) {
                  if (a.first != b.first)
                      return a.first > b.first;
                  return a.second < b.second;
              });
    for (size_t j = 0; assigned < total_budget; ++j)
        ++shots[remainder[j % n].second], ++assigned;

    // Guarantee the one-shot floor by stealing from the largest
    // allocations (budget > n, so enough slack exists).
    for (size_t i = 0; i < n; ++i) {
        if (shots[i] > 0)
            continue;
        size_t donor = 0;
        for (size_t k = 1; k < n; ++k)
            if (shots[k] > shots[donor])
                donor = k;
        --shots[donor];
        shots[i] = 1;
    }
    return shots;
}

} // namespace detail

void
EstimationConfig::validate() const
{
    if (shots < 0)
        throw std::invalid_argument(
            "EstimationConfig.shots: must be >= 0 (got " +
            std::to_string(shots) + "); 0 selects exact expectations");
}

EstimationConfig
EstimationConfig::tableau(const CliffordNoiseSpec &spec,
                          size_t trajectories, uint64_t seed)
{
    sim::NoiseModel noise;
    noise.clifford = spec;
    noise.trajectories = trajectories;
    noise.seed = seed;
    EstimationConfig config;
    config.backend = sim::BackendKind::Tableau;
    config.noise = noise;
    return config;
}

EstimationConfig
EstimationConfig::densityMatrix(const sim::NoiseModel &noise)
{
    EstimationConfig config;
    config.backend = sim::BackendKind::DensityMatrix;
    config.noise = noise;
    return config;
}

EstimationEngine::EstimationEngine(Hamiltonian ham, EstimationConfig config)
    : ham_(std::move(ham)), config_(config), shot_rng_(config.seed),
      batch_rng_(config.seed ^ 0xBA7C4EEDull)
{
    config_.validate();
}

const std::vector<std::vector<size_t>> &
EstimationEngine::measurementGroups() const
{
    if (!groups_computed_) {
        groups_ = groupQubitwiseCommuting(ham_);
        groups_computed_ = true;
    }
    return groups_;
}

sim::Backend &
EstimationEngine::ensureBackend()
{
    if (!backend_) {
        const sim::NoiseModel *noise =
            config_.noise ? &*config_.noise : nullptr;
        backend_ = sim::makeBackend(config_.backend, ham_.nQubits(), noise);
    }
    return *backend_;
}

void
EstimationEngine::ensureShotTables() const
{
    if (shot_tables_computed_)
        return;
    const auto &terms = ham_.terms();
    term_support_.resize(terms.size());
    term_sign_.resize(terms.size());
    for (size_t k = 0; k < terms.size(); ++k) {
        term_support_[k] = supportMask64(terms[k].op);
        term_sign_[k] = hermitianSign(terms[k].op);
    }
    shot_tables_computed_ = true;
}

double
EstimationEngine::energyFromTerms(const std::vector<double> &vals) const
{
    const auto &terms = ham_.terms();
    double total = 0.0;
    for (size_t k = 0; k < terms.size(); ++k)
        total += terms[k].coefficient * vals[k];
    return total;
}

void
EstimationEngine::attachSharedCache(std::shared_ptr<SharedEnergyCache> cache,
                                    uint64_t scope_key)
{
    cache_ = std::move(cache);
    cache_scope_ = scope_key;
}

bool
EstimationEngine::monteCarloBackend() const
{
    // Only trajectory noise consumes backend-internal randomness, and
    // only the tableau substrate (or Auto, which may resolve to it)
    // samples trajectories; dense Kraus evolution is deterministic.
    return config_.noise && config_.noise->hasCliffordNoise() &&
           (config_.backend == sim::BackendKind::Tableau ||
            config_.backend == sim::BackendKind::Auto);
}

std::optional<std::vector<double>>
EstimationEngine::cacheLookup(uint64_t key)
{
    if (!cache_)
        return std::nullopt;
    auto hit = cache_->find(detail::hashCombine(cache_scope_, key));
    ++(hit ? cache_hits_ : cache_misses_);
    return hit;
}

void
EstimationEngine::cacheStore(uint64_t key, std::vector<double> vals)
{
    if (cache_)
        cache_->insert(detail::hashCombine(cache_scope_, key),
                       std::move(vals));
}

const std::vector<size_t> &
EstimationEngine::groupShotAllocation()
{
    if (group_shots_computed_)
        return group_shots_;
    const auto &groups = measurementGroups();
    if (config_.shots == 0) {
        group_shots_.clear();
    } else {
        const auto &terms = ham_.terms();
        std::vector<double> weights(groups.size(), 0.0);
        for (size_t g = 0; g < groups.size(); ++g)
            for (const size_t k : groups[g])
                weights[g] += std::abs(terms[k].coefficient);
        group_shots_ = detail::allocateShotBudget(
            weights, static_cast<size_t>(config_.shots) * groups.size());
    }
    group_shots_computed_ = true;
    return group_shots_;
}

std::vector<double>
EstimationEngine::evaluateOn(const Circuit &bound_circuit,
                             sim::Backend &backend, Rng &shot_rng)
{
    if (config_.shots > 0)
        return shotEstimates(bound_circuit, backend, shot_rng);
    backend.prepare(bound_circuit);
    return backend.expectationBatch(ham_);
}

std::vector<double>
EstimationEngine::termExpectations(const Circuit &bound_circuit)
{
    if (bound_circuit.nQubits() != ham_.nQubits())
        throw std::invalid_argument(
            "EstimationEngine: circuit/Hamiltonian width mismatch");
    // Serial-entry fault hooks: the cooperative deadline checkpoint and
    // the injection probe both sit outside any parallel region, so a
    // throw here unwinds cleanly to the owning cell. The scope also
    // publishes the token thread-locally so the simulators below any
    // engine call observe the same deadline mid-evaluation: the
    // statevector before each compiled run, the density matrix before
    // each pass of its stream, the tableau trajectory loops.
    if (cancel_)
        cancel_->checkpoint();
    CancelScope cancel_scope(cancel_.get());
    faultProbe("engine.energy");
    uint64_t key = 0;
    if (cachingEnabled()) {
        key = bound_circuit.contentHash();
        if (auto hit = cacheLookup(key))
            return std::move(*hit);
    }
    std::vector<double> vals;
    if (cachingEnabled() && monteCarloBackend() && config_.shots == 0) {
        // Frozen-parent discipline (the same one energies() uses):
        // evaluate on a clone so the parent's trajectory RNG never
        // advances — circuit -> expectations stays a pure function,
        // and a cache hit (or an entry outliving an engine rebuild)
        // equals what re-evaluation would have produced. (The shot
        // path reaches purity through hash-seeded streams instead;
        // see shotEstimates.)
        std::unique_ptr<sim::Backend> clone = ensureBackend().clone();
        vals = evaluateOn(bound_circuit, *clone, shot_rng_);
    } else {
        vals = evaluateOn(bound_circuit, ensureBackend(), shot_rng_);
    }
    if (cachingEnabled())
        cacheStore(key, vals);
    return vals;
}

double
EstimationEngine::energy(const Circuit &bound_circuit)
{
    return energyFromTerms(termExpectations(bound_circuit));
}

std::vector<double>
EstimationEngine::energies(std::span<const Circuit> bound_circuits)
{
    const size_t n = bound_circuits.size();
    std::vector<double> out(n, 0.0);
    if (n == 0)
        return out;
    for (const Circuit &c : bound_circuits)
        if (c.nQubits() != ham_.nQubits())
            throw std::invalid_argument(
                "EstimationEngine: circuit/Hamiltonian width mismatch");
    // One checkpoint + probe per batch (GA generations land here), in
    // serial code ahead of the parallel fan-out; the scope extends the
    // deadline to the simulators' checkpoints underneath (each item's
    // throw is caught inside the fan-out and rethrown after it).
    if (cancel_)
        cancel_->checkpoint();
    CancelScope cancel_scope(cancel_.get());
    faultProbe("engine.energy");

    // Collapse duplicates by content hash, then satisfy what we can
    // from the cache. `work` holds indices (into bound_circuits) of the
    // distinct circuits that still need evaluation.
    std::vector<uint64_t> hashes(n);
    std::unordered_map<uint64_t, double> energy_by_hash;
    std::vector<size_t> work;
    for (size_t i = 0; i < n; ++i) {
        hashes[i] = bound_circuits[i].contentHash();
        if (energy_by_hash.count(hashes[i]) > 0)
            continue; // duplicate of an earlier circuit in this batch
        if (const auto hit = cacheLookup(hashes[i])) {
            energy_by_hash[hashes[i]] = energyFromTerms(*hit);
            continue;
        }
        energy_by_hash[hashes[i]] = 0.0; // placeholder, filled below
        work.push_back(i);
    }

    if (!work.empty()) {
        // With the cache on, genome -> energy is a pure function of the
        // engine, so every batch clones the same frozen parent state.
        // With the cache off the engine promises fresh Monte-Carlo
        // samples per evaluation: draw a fresh trajectory parent per
        // batch (mirroring the per-batch shot_base below).
        // Only trajectory noise consumes backend-internal randomness,
        // and only the tableau substrate (or Auto, which may resolve to
        // it) samples trajectories; dense Kraus evolution is
        // deterministic, so reseeding would just rebuild an identical
        // backend.
        const bool monte_carlo_backend = monteCarloBackend();
        std::unique_ptr<sim::Backend> fresh_parent;
        if (!cachingEnabled() && monte_carlo_backend) {
            sim::NoiseModel reseeded = *config_.noise;
            reseeded.seed = batch_rng_.next();
            fresh_parent = sim::makeBackend(config_.backend,
                                            ham_.nQubits(), &reseeded);
        }
        sim::Backend &parent =
            fresh_parent ? *fresh_parent : ensureBackend();
        if (config_.shots > 0) {
            measurementGroups(); // materialize before the parallel loop
            ensureShotTables();
            groupShotAllocation();
            ensureGroupRotations();
        }
        // The shot path draws one advance from the engine stream per
        // batch (fresh samples across calls), then seeds each work
        // item's stream from that base and the circuit's own hash — so
        // within a call, a circuit's shot noise is independent of where
        // it sits in the batch and of what else is in it.
        const uint64_t shot_base =
            config_.shots > 0 ? shot_rng_.next() : 0;

        // Each work item evaluates on its own clone of the parent
        // backend. Clones replay the parent's RNG state, so item w's
        // result depends only on (circuit w, stream w) — bit-identical
        // whether this loop runs serially or on all cores. OpenMP does
        // not propagate exceptions out of a parallel region, so any
        // throw (e.g. a non-Clifford circuit hitting the tableau
        // backend) is captured and rethrown after the join.
        std::vector<std::vector<double>> results(work.size());
        std::exception_ptr error;
#ifdef _OPENMP
        // Fan out only when there are enough distinct circuits to fill
        // the team: nested regions run single-threaded, so a small
        // batch is better served by each item's own inner parallelism
        // (the trajectory farm) using all cores.
        const bool fan_out =
            omp_get_max_threads() > 1 &&
            work.size() >= static_cast<size_t>(omp_get_max_threads()) &&
            work.size() > 1;
#pragma omp parallel for schedule(dynamic) if (fan_out)
#endif
        for (int64_t wi = 0; wi < static_cast<int64_t>(work.size());
             ++wi) {
            const auto w = static_cast<size_t>(wi);
            try {
                // Cloning is load-bearing in two cases: concurrent
                // workers must not share one backend, and Monte-Carlo
                // backends must replay the parent's RNG per item. A
                // serial sweep over a deterministic backend needs
                // neither — prepare() overwrites the state anyway, so
                // skip the full-state copy.
                std::unique_ptr<sim::Backend> clone;
#ifdef _OPENMP
                const bool reuse_parent = !fan_out && !monte_carlo_backend;
#else
                const bool reuse_parent = !monte_carlo_backend;
#endif
                if (!reuse_parent)
                    clone = parent.clone();
                Rng shot_stream(shot_base ^ hashes[work[w]]);
                results[w] =
                    evaluateOn(bound_circuits[work[w]],
                               reuse_parent ? parent : *clone,
                               shot_stream);
            } catch (...) {
#ifdef _OPENMP
#pragma omp critical
#endif
                if (!error)
                    error = std::current_exception();
            }
        }
        if (error)
            std::rethrow_exception(error);

        for (size_t w = 0; w < work.size(); ++w) {
            energy_by_hash[hashes[work[w]]] = energyFromTerms(results[w]);
            if (cachingEnabled())
                cacheStore(hashes[work[w]], std::move(results[w]));
        }
    }

    for (size_t i = 0; i < n; ++i)
        out[i] = energy_by_hash[hashes[i]];
    return out;
}

void
EstimationEngine::ensureGroupRotations() const
{
    if (group_rotations_computed_)
        return;
    const auto &terms = ham_.terms();
    const auto &groups = measurementGroups();
    group_rotations_.assign(groups.size(), {});
    for (size_t gi = 0; gi < groups.size(); ++gi) {
        // Shared measurement basis of the group: on each qubit, every
        // term is I or one common letter, so one rotation layer
        // diagonalizes the whole group (X -> H, Y -> Sdg;H).
        auto &rot = group_rotations_[gi];
        for (size_t q = 0; q < ham_.nQubits(); ++q) {
            Pauli letter = Pauli::I;
            for (size_t k : groups[gi]) {
                const Pauli p = terms[k].op.at(q);
                if (p != Pauli::I) {
                    letter = p;
                    break;
                }
            }
            if (letter == Pauli::X) {
                rot.push_back(Gate(GateType::H, static_cast<uint32_t>(q)));
            } else if (letter == Pauli::Y) {
                rot.push_back(
                    Gate(GateType::Sdg, static_cast<uint32_t>(q)));
                rot.push_back(Gate(GateType::H, static_cast<uint32_t>(q)));
            }
        }
    }
    group_rotations_computed_ = true;
}

std::vector<double>
EstimationEngine::shotEstimates(const Circuit &bound_circuit,
                                sim::Backend &backend, Rng &shot_rng)
{
    if (ham_.nQubits() > 64)
        throw std::invalid_argument(
            "EstimationEngine: shot estimation needs n <= 64");
    ensureShotTables();
    ensureGroupRotations();
    const auto &groups = measurementGroups();
    const std::vector<size_t> &group_shots = groupShotAllocation();
    const auto &terms = ham_.terms();
    std::vector<double> out(terms.size(), 0.0);

    // Every QWC group is an independent work item: own measurement
    // circuit, own hash-seeded shot stream, and (where the substrate
    // consumes internal randomness) its own clone of a per-evaluation
    // parent. Group gi's samples are a function of (circuit,
    // evaluation, gi) alone, whatever ran before it.
    //
    // With caching enabled the per-evaluation bases derive from the
    // circuit's content hash instead of the advancing engine stream,
    // making circuit -> estimates a pure function: a cache hit (or an
    // entry surviving an engine rebuild) returns exactly what
    // re-evaluation would have produced. With caching off, each
    // evaluation draws from the stream — fresh samples per call.
    const bool mc = monteCarloBackend();
    const uint64_t circuit_hash =
        cachingEnabled() ? bound_circuit.contentHash() : 0;
    std::unique_ptr<sim::Backend> mc_parent;
    if (mc) {
        // Trajectory sampling consumes backend-internal RNG; a parent
        // built per evaluation lets every group clone-replay it.
        sim::NoiseModel reseeded = *config_.noise;
        reseeded.seed =
            cachingEnabled()
                ? detail::hashCombine(config_.seed ^ 0xBA7C4EEDull,
                                      circuit_hash)
                : shot_rng.next();
        mc_parent =
            sim::makeBackend(config_.backend, ham_.nQubits(), &reseeded);
    }
    sim::Backend &parent = mc ? *mc_parent : backend;
    const uint64_t shot_base =
        cachingEnabled() ? detail::hashCombine(config_.seed, circuit_hash)
                         : shot_rng.next();

    // One scratch circuit, rewound to the shared bound prefix per group
    // instead of copying the gate list.
    Circuit scratch = bound_circuit;
    const size_t base_gates = scratch.nGates();
    scratch.reserveGates(base_gates + 2 * ham_.nQubits());
    for (size_t gi = 0; gi < groups.size(); ++gi) {
        // Monte-Carlo parents are clone-replayed per group; a
        // deterministic backend is reused, since prepare() overwrites
        // its state anyway.
        std::unique_ptr<sim::Backend> clone;
        if (mc)
            clone = parent.clone();
        sim::Backend &b = mc ? *clone : parent;
        scratch.truncateGates(base_gates);
        for (const Gate &g : group_rotations_[gi])
            scratch.add(g);
        b.prepare(scratch);
        Rng group_rng(detail::hashCombine(shot_base, gi + 1));
        const std::vector<uint64_t> shots =
            b.sample(group_shots[gi], group_rng);
        for (size_t k : groups[gi]) {
            const uint64_t support = term_support_[k];
            int64_t signed_count = 0;
            for (const uint64_t s : shots)
                signed_count += (std::popcount(s & support) & 1) ? -1 : 1;
            out[k] = term_sign_[k] * static_cast<double>(signed_count) /
                     static_cast<double>(shots.size());
        }
    }
    return out;
}

std::function<double(const Circuit &)>
EstimationEngine::evaluator()
{
    return [this](const Circuit &bound) { return energy(bound); };
}

} // namespace eftvqa
