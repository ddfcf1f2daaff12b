/**
 * @file
 * Declarative experiment specs and the session that executes them.
 *
 * The paper's results are a matrix of experiments — (Hamiltonian family
 * x size x ansatz x noise regime x estimation mode) — but the layers
 * below this one expose a per-regime EstimationEngine, so every figure
 * driver used to hand-wire backend kinds, noise models, cache knobs and
 * thread settings, and every engine forgot its energy cache the moment
 * the driver moved to the next regime. This header is the redesigned
 * top of the VQA stack:
 *
 *  - RegimeSpec — one named execution regime (backend kind + noise +
 *    shots + trajectories), with presets for the paper's NISQ/pQEC
 *    regimes on both the density-matrix and tableau substrates. Its
 *    key() is a content hash of every knob that affects results.
 *  - ExperimentSpec — the full declarative description: Hamiltonian,
 *    ansatz, the regimes under study, estimation/optimizer knobs.
 *    validate() rejects bad values at construction with errors naming
 *    the field.
 *  - ExperimentSession — owns the spec-to-engine lifecycle. Engines
 *    are built lazily and memoized per regime key; when
 *    spec.cache_capacity > 0 every engine attaches one session-level
 *    SharedEnergyCache (an LruCache, common/lru.hpp) keyed by
 *    (Hamiltonian hash, regime key, circuit hash), so hits carry across
 *    engines, regimes and engine rebuilds, and at 0 no engine caches;
 *    and submit() runs evaluations asynchronously on a session
 *    executor.
 *
 * Determinism contract: everything a session returns is bit-identical
 * to evaluating the same spec serially, at any thread count. Per
 * regime, submitted work executes in submission order on one engine
 * (regimes run concurrently with each other); inside an evaluation,
 * trajectory streams are forked per trajectory, batch circuits clone a
 * frozen parent, and shot streams are hash-seeded per (evaluation,
 * QWC group). Cache hits only ever short-circuit evaluations that
 * would have reproduced the cached value (caching makes circuit ->
 * energy a pure function per regime).
 */

#ifndef EFTVQA_VQA_EXPERIMENT_HPP
#define EFTVQA_VQA_EXPERIMENT_HPP

#include <condition_variable>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "circuit/circuit.hpp"
#include "noise/noise_model.hpp"
#include "pauli/hamiltonian.hpp"
#include "sim/backend.hpp"
#include "vqa/clifford_vqe.hpp"
#include "vqa/estimation.hpp"
#include "vqa/executor.hpp"
#include "vqa/metrics.hpp"
#include "vqa/vqe.hpp"

namespace eftvqa {

/**
 * One named execution regime: which substrate simulates the circuit and
 * under what noise/estimation statistics. The name is a label for
 * drivers and reports; key() identifies the regime for engine
 * memoization and cache scoping, and hashes every knob that affects
 * results (backend, noise channels, trajectories, shots, seeds) but
 * not the name.
 */
struct RegimeSpec
{
    std::string name = "ideal";

    /** Simulation substrate; Auto dispatches per bound circuit. */
    sim::BackendKind backend = sim::BackendKind::Auto;

    /** Execution-regime noise; nullopt = noiseless. */
    std::optional<sim::NoiseModel> noise;

    /** Measurement shots per QWC group; 0 = exact expectations. */
    long long shots = 0;

    /** Monte-Carlo trajectories for the tableau substrate; > 0
     *  overrides noise->trajectories, 0 keeps the noise model's own
     *  count. */
    long long trajectories = 0;

    /** Shot-stream seed (shot-based estimation only). */
    uint64_t seed = 0xE571A7E5ull;

    /** Noiseless, auto-dispatched exact regime (the reference E0 path
     *  of the density-matrix figures). */
    static RegimeSpec ideal();

    /** Noiseless stabilizer regime (the Clifford VQE reference path):
     *  one exact tableau evaluation per energy. */
    static RegimeSpec idealTableau(uint64_t trajectory_seed = 0x5EEDC11FF0ull);

    /** NISQ regime on the density-matrix substrate (sections 4.4 and
     *  5.2.1: depolarizing + relaxation + readout flips). */
    static RegimeSpec nisqDensityMatrix(const NisqParams &params = {});

    /** pQEC regime on the density-matrix substrate (logical Clifford
     *  rates, near-physical injected Rz). */
    static RegimeSpec pqecDensityMatrix(const PqecParams &params = {});

    /** Trajectory-tableau regime for an arbitrary Pauli-noise spec —
     *  the generic builder behind nisqTableau/pqecTableau and the only
     *  place the tableau RegimeSpec fields are populated. */
    static RegimeSpec tableau(const CliffordNoiseSpec &spec,
                              size_t trajectories,
                              uint64_t trajectory_seed = 0x5EEDC11FF0ull,
                              std::string name = "tableau");

    /** NISQ regime on the trajectory-tableau substrate (the 16..100+
     *  qubit Clifford VQE path, section 5.2.2). */
    static RegimeSpec nisqTableau(size_t trajectories,
                                  uint64_t trajectory_seed = 0x5EEDC11FF0ull,
                                  const NisqParams &params = {});

    /** pQEC regime on the trajectory-tableau substrate. */
    static RegimeSpec pqecTableau(size_t trajectories,
                                  uint64_t trajectory_seed = 0x5EEDC11FF0ull,
                                  const PqecParams &params = {});

    /** Copy with a different display name (key() is unchanged). */
    RegimeSpec named(std::string new_name) const;

    /**
     * Content hash of every result-affecting knob. Two regimes with
     * equal keys are interchangeable: same substrate, same channels,
     * same trajectory/shot statistics, same seeds.
     */
    uint64_t key() const;

    /** The engine-layer configuration this regime lowers to. */
    EstimationConfig estimationConfig() const;

    /** Throws std::invalid_argument naming the offending field. */
    void validate() const;
};

/**
 * Declarative description of one experiment: the problem (Hamiltonian +
 * ansatz), the regimes it is evaluated under, and the estimation /
 * optimizer knobs shared across them. A figure-style scenario sweep is
 * a ~10-line spec handed to an ExperimentSession instead of a bespoke
 * driver.
 */
struct ExperimentSpec
{
    Hamiltonian hamiltonian;

    /** Parameterized ansatz template (bound per evaluation). */
    Circuit ansatz;

    /** Regimes under study; names must be unique. Sessions also accept
     *  ad-hoc RegimeSpecs that are not listed here. */
    std::vector<RegimeSpec> regimes;

    /** Discrete-optimizer knobs for the Clifford VQE entry points. */
    GeneticConfig genetic;

    /**
     * Entries in the session's energy cache, keyed by (Hamiltonian
     * hash, regime key, circuit hash) so hits carry across engines and
     * regimes. With caching on, circuit -> energy is a pure function
     * per regime, so cache reuse never changes results. 0 runs without
     * a cache, preserving fresh-Monte-Carlo-sample semantics for
     * repeated evaluations.
     */
    size_t cache_capacity = 4096;

    /** Session executor threads for submit(); 0 = pick a small default
     *  from the hardware concurrency; at most kMaxWorkers. */
    size_t executor_threads = 0;

    /** Regime lookup by name; throws listing the known names. */
    const RegimeSpec &regime(std::string_view name) const;
    bool hasRegime(std::string_view name) const;

    /**
     * Throws std::invalid_argument naming the offending field:
     * ansatz/Hamiltonian width mismatch, duplicate regime names,
     * negative shots/trajectories, bad GA knobs.
     */
    void validate() const;

    /** The paper's density-matrix comparison: ideal + NISQ + pQEC
     *  regimes ("ideal"/"nisq"/"pqec") over one problem. */
    static ExperimentSpec nisqVsPqecDensityMatrix(Hamiltonian ham,
                                                  Circuit ansatz);

    /** The paper's at-scale Clifford comparison: NISQ + pQEC
     *  trajectory-tableau regimes ("nisq"/"pqec") over one problem. */
    static ExperimentSpec nisqVsPqecTableau(Hamiltonian ham, Circuit ansatz,
                                            size_t trajectories,
                                            const GeneticConfig &genetic);
};

/**
 * Executes an ExperimentSpec. Owns the engines (memoized per regime
 * key), the shared cross-engine energy cache, and the async executor
 * behind submit(). Thread-safe: engines are serialized per regime,
 * regimes run concurrently. See the file comment for the determinism
 * contract.
 *
 * Lifetime: evaluator() closures and engine() references are invalidated
 * by resetEngines() and by destruction; futures returned by submit()
 * must not outlive the session. The destructor waits for submitted work
 * to finish.
 */
class ExperimentSession
{
  public:
    /** Validates the spec (throws std::invalid_argument naming the bad
     *  field) and takes ownership of it. */
    explicit ExperimentSession(ExperimentSpec spec);

    /**
     * Session over an externally owned shared cache — the sweep
     * layer's cross-cell seam (vqa/sweep.hpp): entries are keyed
     * purely by (Hamiltonian hash, regime key, circuit hash) content,
     * so sessions of different sweep cells reuse each other's work.
     * Requires spec.cache_capacity > 0 (throws naming the field
     * otherwise: a session with caching off would ignore the cache);
     * a null @p shared_cache behaves exactly like the plain ctor.
     */
    ExperimentSession(ExperimentSpec spec,
                      std::shared_ptr<SharedEnergyCache> shared_cache);

    ~ExperimentSession();

    ExperimentSession(const ExperimentSession &) = delete;
    ExperimentSession &operator=(const ExperimentSession &) = delete;

    const ExperimentSpec &spec() const { return spec_; }
    const Hamiltonian &hamiltonian() const { return spec_.hamiltonian; }

    /** Hamiltonian::contentHash(), computed once per session — the
     *  Hamiltonian half of the cache key. */
    uint64_t hamiltonianHash() const { return ham_hash_; }

    /**
     * The engine for a regime, built on first use and memoized by
     * regime key. Callers that use the engine directly own its
     * serialization (the session's own entry points lock per regime).
     */
    EstimationEngine &engine(const RegimeSpec &regime);

    /** engine() for a regime listed in spec().regimes, by name. */
    EstimationEngine &engine(std::string_view regime_name);

    /** <H> of @p bound under @p regime (synchronous). */
    double energy(const RegimeSpec &regime, const Circuit &bound);

    /** Population energies under @p regime (deduped, cloned-parallel,
     *  cache-backed — EstimationEngine::energies semantics). */
    std::vector<double> energies(const RegimeSpec &regime,
                                 std::span<const Circuit> bound);

    /** Per-term expectations of @p bound (mitigation hooks). */
    std::vector<double> termExpectations(const RegimeSpec &regime,
                                         const Circuit &bound);

    /**
     * Asynchronous energy: enqueues the evaluation on the session
     * executor and returns immediately. Per regime, submissions run in
     * submission order on the regime's engine, so a sequence of
     * submit() calls returns exactly what the same sequence of
     * energy() calls would — at any executor width or OpenMP thread
     * count — while different regimes overlap.
     */
    std::future<double> submit(const RegimeSpec &regime, Circuit bound);

    /** Asynchronous population evaluation (energies() semantics). */
    std::future<std::vector<double>> submit(const RegimeSpec &regime,
                                            std::vector<Circuit> population);

    /** Self-serializing evaluator over this session's engine for
     *  @p regime; the session must outlive the returned callable. */
    EnergyEvaluator evaluator(const RegimeSpec &regime);

    /** Continuous VQE of spec().ansatz under @p regime. */
    VqeResult minimize(const RegimeSpec &regime, Optimizer &optimizer,
                       std::vector<double> initial, size_t max_evals);

    /** The paper's best-of-N protocol under @p regime. */
    VqeResult minimizeBestOf(const RegimeSpec &regime, Optimizer &optimizer,
                             size_t max_evals, size_t attempts,
                             uint64_t seed);

    /**
     * GA-based Clifford VQE under @p regime using spec().genetic.
     * Trajectory streams are seeded from the GA seed exactly as the
     * retired free-standing runCliffordVqe() did, so this path stays
     * bit-identical to the historical drivers; the ideal-energy
     * re-evaluation runs through the shared idealTableau regime (and
     * hence the shared cache).
     */
    CliffordVqeResult cliffordVqe(const RegimeSpec &regime);
    CliffordVqeResult cliffordVqe(const RegimeSpec &regime,
                                  const Circuit &ansatz);

    /** Reference energy E0: lowest noiseless stabilizer energy found
     *  by the GA (section 5.3.1), through the shared idealTableau
     *  regime/engine. */
    double cliffordReference();
    double cliffordReference(const Circuit &ansatz);

    /**
     * Re-evaluate two bound candidates under two regimes and report
     * gamma_{A/B} against @p e0 — the unbiased comparison protocol of
     * the figure drivers (use eval regimes with their own seeds /
     * trajectory counts for fresh samples).
     */
    RegimeComparison compare(const RegimeSpec &regime_a,
                             const Circuit &bound_a,
                             const RegimeSpec &regime_b,
                             const Circuit &bound_b, double e0,
                             double gap_floor = 1e-12);

    /** Session-level cache, or null when spec().cache_capacity is 0. */
    SharedEnergyCache *cache() { return cache_.get(); }

    /** Engines built so far (distinct regime keys). */
    size_t engineCount() const;

    /**
     * Drop every memoized engine (waits for in-flight submissions
     * first). The shared cache survives, so rebuilt engines warm-start
     * from it — this is the cross-engine reuse seam, and what the
     * session_cache bench block measures.
     */
    void resetEngines();

    /**
     * Install a cooperative cancellation token on the session and on
     * every engine it has built or will build (null clears it). The
     * sweep runner arms one per cell attempt to enforce the per-cell
     * soft deadline; engines check it at their evaluation entry points.
     */
    void setCancelToken(std::shared_ptr<const CancelToken> token);

    /** Token installed via setCancelToken (null when none). */
    std::shared_ptr<const CancelToken> cancelToken() const
    {
        std::lock_guard<std::mutex> lock(engines_mutex_);
        return cancel_;
    }

  private:
    struct EngineSlot
    {
        std::unique_ptr<EstimationEngine> engine;
        std::mutex mutex; ///< serializes evaluations on this engine
        // Submitted jobs for this regime, drained FIFO so async results
        // replay the serial call sequence bit-for-bit.
        std::mutex queue_mutex;
        std::deque<std::function<void()>> pending;
        bool draining = false;
    };

    ExperimentSpec spec_;
    uint64_t ham_hash_;
    std::shared_ptr<SharedEnergyCache> cache_;
    std::shared_ptr<const CancelToken> cancel_; ///< guarded by engines_mutex_

    mutable std::mutex engines_mutex_;
    std::map<uint64_t, std::unique_ptr<EngineSlot>> engines_;

    // Submitted tasks not yet executed (counted from the moment of
    // submission, before they reach any queue) — the idle predicate
    // waitIdle()/resetEngines() rely on.
    std::mutex idle_mutex_;
    std::condition_variable idle_cv_;
    size_t outstanding_ = 0;

    // Session executor: the shared WorkerPool (vqa/executor.hpp,
    // workers spawn lazily on first submit); per-regime FIFOs layered
    // on top keep same-regime work ordered. Declared last so it joins
    // (in-flight drain jobs reference the slots above) before anything
    // else is torn down.
    WorkerPool pool_;

    EngineSlot &slotFor(const RegimeSpec &regime);
    void enqueueOnSlot(EngineSlot &slot, std::function<void()> task);
    void drainSlot(EngineSlot &slot);
    void waitIdle();
};

/**
 * Session-backed energy evaluator that owns its session: builds a
 * single-regime ExperimentSpec around (ham, regime) and keeps the
 * session alive inside the returned callable. vqe.hpp's
 * idealEvaluator() is a thin wrapper over this.
 */
EnergyEvaluator sessionEvaluator(const Hamiltonian &ham,
                                 const RegimeSpec &regime);

} // namespace eftvqa

#endif // EFTVQA_VQA_EXPERIMENT_HPP
