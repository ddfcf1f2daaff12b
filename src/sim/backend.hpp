/**
 * @file
 * Polymorphic simulation backend layer.
 *
 * The paper compares the *same* ansatz circuits across three simulation
 * regimes: exact statevector (ideal reference, Figs 13-15), noisy
 * density matrix (8/12-qubit studies, section 5.2.1) and noisy-Clifford
 * stabilizer trajectories (16..100+ qubits, section 5.2.2). sim::Backend
 * is the single seam all three plug into: prepare a bound circuit, read
 * Pauli expectations (batched, one state traversal per group of terms
 * sharing an X-mask), draw Z-basis samples, clone for parallel use.
 *
 * makeBackend() is the factory; BackendKind::Auto dispatches per
 * prepared circuit: Clifford-only -> Tableau, noise model present ->
 * DensityMatrix, otherwise Statevector.
 */

#ifndef EFTVQA_SIM_BACKEND_HPP
#define EFTVQA_SIM_BACKEND_HPP

#include <memory>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "noise/noise_model.hpp"
#include "pauli/hamiltonian.hpp"

namespace eftvqa {

class CompiledCircuit;

namespace sim {

/** Concrete simulation substrates plus the auto-dispatch tag. */
enum class BackendKind : uint8_t
{
    Auto,         ///< dispatch per prepared circuit (see resolveBackendKind)
    Statevector,  ///< dense 2^n amplitudes, exact, noiseless
    DensityMatrix,///< dense 4^n density operator, one DmPass stream
    Tableau,      ///< stabilizer tableau, exact Clifford / Pauli trajectories
};

/** Mnemonic, e.g. "tableau". */
std::string backendKindName(BackendKind kind);

/**
 * Unified execution-regime noise description. Each substrate consumes
 * the half it understands: the density-matrix path folds the channels
 * of @c dm into its DmPass stream, the tableau path samples the Pauli
 * channels of @c clifford over @c trajectories Monte-Carlo executions.
 * A default-constructed model is noiseless on every backend.
 */
struct NoiseModel
{
    DmNoiseSpec dm;                  ///< dense-path channels
    CliffordNoiseSpec clifford;      ///< trajectory-path channels
    size_t trajectories = 200;       ///< Monte-Carlo samples (tableau path)
    uint64_t seed = 0x5EEDC11FF0ull; ///< trajectory RNG seed

    /** True when neither path would insert any error channel. */
    bool isNoiseless() const;

    /** True when the density-matrix half carries any error channel. */
    bool hasDmNoise() const;

    /** True when the trajectory half carries any error channel. */
    bool hasCliffordNoise() const;

    /** NISQ regime on both paths (section 4.4). */
    static NoiseModel nisq(const NisqParams &params = {});

    /** pQEC regime on both paths (section 4.4). */
    static NoiseModel pqec(const PqecParams &params = {});
};

/**
 * A prepared quantum state behind a uniform estimation interface.
 *
 * Lifecycle: prepare() executes a bound circuit from |0..0> (inserting
 * the backend's noise channels, if any); the observable queries below
 * then refer to the prepared state. Querying before the first prepare()
 * throws. Monte-Carlo backends consume internal RNG state on queries,
 * so two identical queries may differ by sampling noise; clone() copies
 * that RNG state, making clones replayable.
 */
class Backend
{
  public:
    virtual ~Backend() = default;

    /** Concrete kind (never Auto once constructed via makeBackend). */
    virtual BackendKind kind() const = 0;

    virtual size_t nQubits() const = 0;

    /**
     * Execute @p circuit (bound, matching width) from |0..0>, replacing
     * any previously prepared state.
     */
    virtual void prepare(const Circuit &circuit) = 0;

    /**
     * prepare() from a pre-compiled circuit (sim/compiled_circuit.hpp).
     * The statevector executes the fused op stream directly; the
     * density matrix compiles compiled.source() into its DmPass stream,
     * and the tableau executes compiled.source() gate by gate. prepare()
     * on the statevector compiles inline and runs the same stream, so
     * this entry point only saves the compile for a caller that
     * re-prepares one circuit and times the run on its own.
     */
    virtual void prepareCompiled(const CompiledCircuit &compiled);

    /** <P> of the prepared state for a Hermitian Pauli. */
    virtual double expectation(const PauliString &p) const = 0;

    /**
     * All term expectations of @p ham in one batched evaluation, aligned
     * with ham.terms(). Dense backends bucket terms by X-mask and make a
     * single state traversal per bucket; the trajectory backend reads
     * every term off each sampled tableau.
     */
    virtual std::vector<double>
    expectationBatch(const Hamiltonian &ham) const = 0;

    /**
     * @p n_shots Z-basis measurement bitstrings of the prepared state
     * (qubit q -> bit q; registers wider than 64 qubits truncate).
     * Readout flips from the noise model are folded in.
     */
    virtual std::vector<uint64_t> sample(size_t n_shots, Rng &rng) const = 0;

    /** Deep copy, including prepared state and internal RNG. */
    virtual std::unique_ptr<Backend> clone() const = 0;

    /** sum_k c_k <P_k> via expectationBatch(). */
    double energy(const Hamiltonian &ham) const;
};

/**
 * Auto-dispatch rule, applied per prepared circuit:
 *   1. requested != Auto        -> requested;
 *   2. circuit is Clifford-only -> Tableau (exact or trajectory-noisy),
 *      unless the noise model carries only density-matrix channels the
 *      tableau path cannot simulate;
 *   3. a noise model is present -> DensityMatrix;
 *   4. otherwise                -> Statevector.
 */
BackendKind resolveBackendKind(BackendKind requested, const Circuit &circuit,
                               const NoiseModel *noise);

/**
 * True when a backend of kind @p requested under @p noise (null:
 * noiseless) can run some circuit on the density matrix: DensityMatrix
 * itself, or Auto with a noise model that is not noiseless (rule 3
 * above). RegimeSpec::key() folds kNoisyDmKernelVersion into exactly
 * these regimes.
 */
bool canRunDensityMatrix(BackendKind requested, const NoiseModel *noise);

/**
 * Create a backend on @p n_qubits qubits. @p noise may be null
 * (noiseless); it is copied, not borrowed. BackendKind::Auto returns a
 * dispatching wrapper that picks the substrate at each prepare() via
 * resolveBackendKind() — its kind() reports the substrate currently
 * backing it (Auto before the first prepare).
 */
std::unique_ptr<Backend> makeBackend(BackendKind kind, size_t n_qubits,
                                     const NoiseModel *noise = nullptr);

} // namespace sim
} // namespace eftvqa

#endif // EFTVQA_SIM_BACKEND_HPP
