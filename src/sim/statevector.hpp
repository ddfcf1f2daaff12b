/**
 * @file
 * Dense statevector simulator.
 *
 * Used for noiseless reference energies (ideal-expressivity ratios in
 * paper Fig 14) and as the exact backend for small-circuit tests.
 */

#ifndef EFTVQA_SIM_STATEVECTOR_HPP
#define EFTVQA_SIM_STATEVECTOR_HPP

#include <complex>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "pauli/hamiltonian.hpp"
#include "sim/channels.hpp"
#include "sim/compiled_circuit.hpp"
#include "sim/simd.hpp"

namespace eftvqa {

/**
 * 2^n complex amplitudes with gate application, Pauli expectations and
 * measurement sampling. Practical up to n ~ 24.
 */
class Statevector
{
  public:
    /** |0...0> on @p n_qubits qubits. */
    explicit Statevector(size_t n_qubits);

    size_t nQubits() const { return n_; }
    size_t dim() const { return data_.size(); }

    /** 64-byte-aligned amplitude storage (see simd::AmpVector). */
    const simd::AmpVector &amplitudes() const { return data_; }
    simd::AmpVector &amplitudes() { return data_; }

    /** Reset to |0...0>. */
    void setZeroState();

    /** Apply a 2x2 unitary to qubit q. */
    void applyMatrix1q(const Mat2 &u, size_t q);

    /**
     * Apply a 4x4 unitary to the pair (qa, qb), where qa indexes the
     * high bit of the 4x4 basis. Pair-indexed: iterates the dim/4
     * relevant index groups.
     */
    void applyMatrix2q(const Mat4 &u, size_t qa, size_t qb);

    /** Apply a collapsed diagonal-gate run in one phase sweep. */
    void applyDiagPhase(const DiagPhaseOp &d);

    /** Apply a collapsed X/CX/Swap run as one basis permutation. */
    void applyGf2Perm(const Gf2PermOp &p);

    /**
     * Apply a unitary gate. Measure/Reset require an RNG; use the
     * measure()/reset() entry points for those.
     */
    void applyGate(const Gate &g);

    /** Apply a Hermitian Pauli operator (unitary since P^2 = I). */
    void applyPauli(const PauliString &p);

    /**
     * Run all unitary gates of a bound circuit. Compiles the circuit
     * to the fused op stream first (see sim/compiled_circuit.hpp);
     * callers that execute the same circuit repeatedly should compile
     * once and use runCompiled().
     */
    void run(const Circuit &circuit);

    /** Execute a pre-compiled op stream (the hot path), op by op in
     *  stream order through the apply* kernels above. */
    void runCompiled(const CompiledCircuit &compiled);

    /** Measure qubit q in the Z basis; collapses the state. */
    int measure(size_t q, Rng &rng);

    /** Reset qubit q to |0> (measure and conditionally flip). */
    void reset(size_t q, Rng &rng);

    /** <psi|P|psi> for a Hermitian Pauli. */
    double expectation(const PauliString &p) const;

    /** <psi|H|psi>. */
    double expectation(const Hamiltonian &h) const;

    /**
     * All term expectations of @p h, aligned with h.terms(). Terms are
     * bucketed by X-mask and each bucket is evaluated in a single
     * traversal of the amplitudes: the per-basis-state complex product
     * conj(a_{i^x}) * a_i is computed once and reused by every term of
     * the bucket (sim/lane_sweep.hpp). For Hamiltonians
     * with many terms per bucket — any Z-diagonal family — this beats
     * per-term expectation() by the bucket size.
     */
    std::vector<double> expectationBatch(const Hamiltonian &h) const;

    /** Measurement probabilities |a_i|^2 of all 2^n basis states. */
    std::vector<double> basisProbabilities() const;

    /** Squared overlap |<other|this>|^2. */
    double overlapSquared(const Statevector &other) const;

    /** L2 norm (should stay 1 under unitaries). */
    double norm() const;

  private:
    size_t n_;
    simd::AmpVector data_;

    void applyCX(size_t control, size_t target);
    void applyCZ(size_t a, size_t b);
    void applySwap(size_t a, size_t b);
    double probabilityOfOne(size_t q) const;
};

} // namespace eftvqa

#endif // EFTVQA_SIM_STATEVECTOR_HPP
