/**
 * @file
 * Batched Hamiltonian-expectation engine over sim::Backend.
 *
 * Every evaluator in the VQA stack — continuous VQE (vqe.hpp), the
 * GA-based Clifford VQE (clifford_vqe.hpp), the regime-comparison
 * metrics and the bench/fig* drivers — funnels through this one class.
 * It owns the Hamiltonian's term grouping (qubit-wise-commuting
 * measurement groups), dispatches to a backend via makeBackend(), and
 * evaluates all terms in one expectationBatch() pass per prepared
 * circuit instead of one state traversal per term.
 *
 * Exact vs shot-based estimation sit behind the same config struct:
 * shots == 0 reads exact expectations off the prepared state; shots > 0
 * executes one measurement circuit per QWC group (basis rotations
 * appended) and estimates each term from bitstring parities, the way
 * hardware would.
 *
 * Two batch-scale features sit on top (the deterministic parallel
 * execution layer):
 *
 *  - an energy cache keyed by bound-circuit content hash: the one
 *    cache an engine holds, a SharedEnergyCache (an LruCache,
 *    common/lru.hpp) that its owner attaches via attachSharedCache() —
 *    vqa/experiment.hpp attaches one so hits carry across engines and
 *    regimes. GA populations re-evaluate duplicate angle vectors; the
 *    cache turns those into lookups, which also makes genome -> energy
 *    a pure function within an engine. An engine with no cache
 *    attached evaluates every circuit. Nothing else is cached: a
 *    statevector prepare compiles its circuit inline
 *    (Statevector::run), since a repeated circuit is an energy-cache
 *    hit;
 *  - energies(span<Circuit>): evaluates the distinct circuits of a
 *    population across Backend::clone()s in parallel. Clones replay
 *    the parent's RNG, and shot streams are seeded from the circuit's
 *    own content hash, so every circuit sees the same randomness
 *    regardless of batch order or thread count — the batch is
 *    bit-identical to evaluating each circuit on a fresh clone
 *    serially.
 *
 * The shot path runs its QWC groups as one serial sweep. Each group
 * draws from its own hash-seeded shot stream and, on Monte-Carlo
 * substrates, samples its own clone of a per-evaluation parent, so a
 * group's samples depend on (circuit, evaluation, group) alone.
 */

#ifndef EFTVQA_VQA_ESTIMATION_HPP
#define EFTVQA_VQA_ESTIMATION_HPP

#include <functional>
#include <memory>
#include <optional>
#include <span>

#include "circuit/circuit.hpp"
#include "common/lru.hpp"
#include "common/rng.hpp"
#include "pauli/hamiltonian.hpp"
#include "sim/backend.hpp"
#include "vqa/fault.hpp"

namespace eftvqa {

namespace detail {

/**
 * Split a total shot budget across measurement groups proportionally
 * to their weights (sum |c_k| per group, VarSaw-style), largest
 * remainder first, deterministically. Every group is guaranteed at
 * least one shot (stolen from the largest allocations; if the budget
 * is smaller than the group count, every group gets exactly one).
 * Zero or negative total weight falls back to a uniform split.
 */
std::vector<size_t> allocateShotBudget(const std::vector<double> &weights,
                                       size_t total_budget);

/** One FNV-1a step: fold @p v into @p h. The composite-key combinator
 *  shared by the session cache (scope ^ circuit) and the per-group shot
 *  streams (base ^ group index). */
constexpr uint64_t
hashCombine(uint64_t h, uint64_t v)
{
    return (h ^ v) * 0x100000001B3ull;
}

} // namespace detail

/**
 * LRU cache of per-term expectation vectors, shared across estimation
 * engines. Keys are composite hashes built by the owner —
 * vqa::ExperimentSession keys entries by (Hamiltonian::contentHash,
 * RegimeSpec::key, Circuit::contentHash), so a hit in one engine
 * carries to every other engine of the same (Hamiltonian, regime),
 * across regimes of one figure driver and across engine rebuilds.
 * Engines attach one via EstimationEngine::attachSharedCache().
 */
using SharedEnergyCache = LruCache<std::vector<double>>;

/** How an EstimationEngine turns circuits into energies. */
struct EstimationConfig
{
    /** Simulation substrate; Auto dispatches per bound circuit. */
    sim::BackendKind backend = sim::BackendKind::Auto;

    /** Execution-regime noise; nullopt = noiseless. */
    std::optional<sim::NoiseModel> noise;

    /**
     * Measurement shots per QWC group on average; 0 = exact
     * expectations from the simulated state (the paper's default for
     * all regime studies). The total budget shots * #groups is spread
     * across the groups in proportion to each group's weight sum
     * |c_k| (VarSaw-style variance reduction at fixed budget; see
     * detail::allocateShotBudget). Signed so that a negative value is
     * a loud construction-time error (validate()) instead of a silent
     * multi-exabyte sample request.
     */
    long long shots = 0;

    /** RNG seed for shot sampling. */
    uint64_t seed = 0xE571A7E5ull;

    /**
     * Throw std::invalid_argument naming the offending field for values
     * that would otherwise surface as silent misbehaviour deep in the
     * engine (negative shots). Called by the EstimationEngine ctor.
     */
    void validate() const;

    /** Tableau-trajectory regime: the Clifford VQE / fig12/fig14 path. */
    static EstimationConfig tableau(const CliffordNoiseSpec &spec,
                                    size_t trajectories, uint64_t seed);

    /** Density-matrix regime: the fig13/fig15 / examples path. */
    static EstimationConfig densityMatrix(const sim::NoiseModel &noise);
};

/**
 * Grouped, backend-agnostic estimator of <H> for bound circuits.
 * Construct once per (Hamiltonian, regime) pair and reuse across the
 * optimizer loop — the term grouping and backend are cached.
 */
class EstimationEngine
{
  public:
    explicit EstimationEngine(Hamiltonian ham, EstimationConfig config = {});

    const Hamiltonian &hamiltonian() const { return ham_; }
    const EstimationConfig &config() const { return config_; }

    /**
     * Qubit-wise-commuting measurement groups (term indices into
     * hamiltonian().terms()): the number of circuit executions the shot
     * path needs per energy, and the measurement-cost model the paper's
     * section 5.2 assumes. Computed lazily on first use — the exact
     * path never needs it (the backends group by X-mask internally).
     */
    const std::vector<std::vector<size_t>> &measurementGroups() const;

    /** <H> of @p bound_circuit under the configured regime. */
    double energy(const Circuit &bound_circuit);

    /** Per-term expectations, aligned with hamiltonian().terms(). */
    std::vector<double> termExpectations(const Circuit &bound_circuit);

    /**
     * Energies of a whole population of bound circuits. Duplicates are
     * collapsed by content hash before evaluation; cache hits skip
     * evaluation entirely; the remaining distinct circuits are
     * evaluated in parallel, one Backend::clone() per circuit (clones
     * replay the parent RNG, so results are independent of batch order
     * and thread count). With caching off, each batch draws a fresh
     * trajectory parent, so re-evaluating a circuit in a later batch
     * sees fresh Monte-Carlo samples — within a batch results are
     * still order- and thread-independent. This is the GA population
     * evaluator.
     */
    std::vector<double> energies(std::span<const Circuit> bound_circuits);

    /** Cache hits/misses since construction (0/0 when caching is off).
     *  Counts this engine's lookups only, even when the cache is
     *  attached and shared. */
    size_t cacheHits() const { return cache_hits_; }
    size_t cacheMisses() const { return cache_misses_; }

    /**
     * Replace the energy cache with @p cache: lookups and inserts go
     * to it under keys hashCombine(@p scope_key, circuit contentHash),
     * so hits carry across every engine attached with the same scope.
     * Caching is on exactly when a cache is held; null turns it off.
     * vqa::ExperimentSession attaches every engine it builds, scoped by
     * (Hamiltonian hash, regime key).
     */
    void attachSharedCache(std::shared_ptr<SharedEnergyCache> cache,
                           uint64_t scope_key);

    /** True when evaluations are memoized (an energy cache is held)
     *  — the genome -> energy pure-function regime. */
    bool cachingEnabled() const { return cache_ != nullptr; }

    /**
     * Shots per QWC measurement group, the weighted split of the shot
     * budget (aligned with measurementGroups()); empty when
     * shots == 0.
     */
    const std::vector<size_t> &groupShotAllocation();

    /**
     * Adapter for the VQE drivers: a callable evaluating energy().
     * Captures this engine by reference — the engine must outlive it
     * (see sessionEvaluator in vqa/experiment.hpp for a self-owning
     * variant).
     */
    std::function<double(const Circuit &)> evaluator();

    /** Backend in use; null until the first evaluation. */
    const sim::Backend *backend() const { return backend_.get(); }

    /**
     * Install a cooperative cancellation token (null clears it). The
     * engine calls token->checkpoint() at its serial evaluation entry
     * points — energy()/termExpectations() and each energies() batch —
     * so a sweep cell's soft deadline trips at the next evaluation
     * instead of killing the worker thread. Checkpoints live outside
     * the OpenMP parallel regions; cancellation never tears a batch.
     */
    void setCancelToken(std::shared_ptr<const CancelToken> token)
    {
        cancel_ = std::move(token);
    }

  private:
    Hamiltonian ham_;
    EstimationConfig config_;
    mutable std::vector<std::vector<size_t>> groups_;
    mutable bool groups_computed_ = false;
    // Per-term support masks and signs for the shot path, computed once
    // per engine instead of per estimate (they depend only on ham_).
    mutable std::vector<uint64_t> term_support_;
    mutable std::vector<double> term_sign_;
    mutable bool shot_tables_computed_ = false;
    // Per-group measurement-basis rotation layers (X -> H, Y -> Sdg;H),
    // computed once per engine — group tasks append them to a copy of
    // the bound circuit instead of re-deriving the shared basis.
    mutable std::vector<std::vector<Gate>> group_rotations_;
    mutable bool group_rotations_computed_ = false;
    std::unique_ptr<sim::Backend> backend_;
    Rng shot_rng_;
    // Seeds the per-batch fresh trajectory parent used by energies()
    // when caching is off (fresh Monte-Carlo samples per batch).
    Rng batch_rng_;

    // Energy cache, attached by the owner via attachSharedCache(); null
    // means caching is off.
    std::shared_ptr<SharedEnergyCache> cache_;
    uint64_t cache_scope_ = 0;
    size_t cache_hits_ = 0;
    size_t cache_misses_ = 0;
    std::shared_ptr<const CancelToken> cancel_;

    // Per-group shot counts (weighted or uniform), computed once.
    std::vector<size_t> group_shots_;
    bool group_shots_computed_ = false;

    sim::Backend &ensureBackend();
    void ensureShotTables() const;
    void ensureGroupRotations() const;
    double energyFromTerms(const std::vector<double> &vals) const;

    /** True when the configured substrate consumes backend-internal RNG
     *  (trajectory sampling) — the case that forces fresh-parent
     *  reseeds and per-work-item clones. */
    bool monteCarloBackend() const;

    /** Cached per-term expectations of the circuit hashing to @p key;
     *  counts one hit or one miss (nothing when caching is off). */
    std::optional<std::vector<double>> cacheLookup(uint64_t key);
    void cacheStore(uint64_t key, std::vector<double> vals);

    /** Uncached per-term estimate of one circuit on a given backend
     *  (thread-safe: it writes no engine state once energies() has
     *  built the shot tables). */
    std::vector<double> evaluateOn(const Circuit &bound_circuit,
                                   sim::Backend &backend, Rng &shot_rng);

    std::vector<double> shotEstimates(const Circuit &bound_circuit,
                                      sim::Backend &backend,
                                      Rng &shot_rng);
};

} // namespace eftvqa

#endif // EFTVQA_VQA_ESTIMATION_HPP
