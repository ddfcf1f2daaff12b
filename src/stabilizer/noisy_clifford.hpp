/**
 * @file
 * Monte-Carlo Pauli-noise trajectories over the stabilizer simulator.
 *
 * This is the engine behind the paper's large-scale Clifford-state VQE
 * evaluation (section 5.2.2): every classically simulable noise source —
 * depolarizing, bit-flip, and Pauli-twirled thermal relaxation — is
 * sampled per gate/idle slot, and energies are averaged across
 * trajectories.
 *
 * One schedule walker runs every trajectory, so the noise-draw order
 * lives in one place: per ASAP layer, each gate and then its channel,
 * then the layer's idle qubits in index order. The walker drives one of
 * two targets. A circuit without Measure or Reset runs its noiseless
 * tableau once per call, and each trajectory then walks only a
 * PauliFrame (stabilizer/pauli_frame.hpp): <T> = +/-<T>_ideal, negated
 * when the frame anticommutes with T, so a term that is 0 ideally stays
 * 0. A circuit with Measure or Reset, whose outcomes draw from the
 * trajectory's stream, walks a full Tableau per trajectory instead, as
 * does runTrajectory(). Both targets draw the same values in the same
 * order, so the choice changes no result bit.
 *
 * The trajectory loops form a deterministic parallel farm: one RNG
 * stream is forked per trajectory up front (Rng::forkStreams), so
 * trajectory k consumes stream k on whatever thread runs it, and
 * per-term tallies are integer sums (exactly order-independent). The
 * farm therefore returns the same bits at every OpenMP team size; a
 * team of one is the serial sweep of the same streams.
 */

#ifndef EFTVQA_STABILIZER_NOISY_CLIFFORD_HPP
#define EFTVQA_STABILIZER_NOISY_CLIFFORD_HPP

#include <vector>

#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "pauli/hamiltonian.hpp"
#include "sim/channels.hpp"
#include "stabilizer/tableau.hpp"

namespace eftvqa {

/** Pauli-noise specification for trajectory simulation. */
struct CliffordNoiseSpec
{
    /** Channel applied to the qubit after each one-qubit Clifford. */
    PauliChannel one_qubit;

    /** Total probability of a 15-way two-qubit depolarizing event. */
    double two_qubit_depol = 0.0;

    /** Channel applied after each rotation gate (Rz/Rx/Ry). In the pQEC
     *  regime this carries the magic-state-injection error 23p/30. */
    PauliChannel rotation;

    /** Channel applied per idle layer per idle qubit. */
    PauliChannel idle;

    /** Classical measurement bit-flip probability (scales Pauli
     *  expectations by (1-2p)^weight). */
    double meas_flip = 0.0;

    /** Noiseless spec. */
    static CliffordNoiseSpec ideal() { return {}; }
};

/**
 * Runs noisy Clifford circuits and estimates Hamiltonian energies.
 */
class NoisyCliffordSimulator
{
  public:
    NoisyCliffordSimulator(CliffordNoiseSpec spec, uint64_t seed);

    /**
     * Mean energy over @p trajectories noisy executions of the (bound,
     * Clifford) circuit. Readout error is folded in analytically as a
     * (1-2p)^weight damping per Pauli term.
     */
    double energy(const Circuit &circuit, const Hamiltonian &ham,
                  size_t trajectories);

    /** Per-trajectory energies (for variance studies / mitigation). */
    std::vector<double> energySamples(const Circuit &circuit,
                                      const Hamiltonian &ham,
                                      size_t trajectories);

    /**
     * Mean per-term Pauli expectations over @p trajectories noisy
     * executions, aligned with ham.terms() and including the analytic
     * readout damping. One batched pass: every trajectory is read once
     * for all terms, so the trajectory loop is shared across the whole
     * Hamiltonian instead of re-run per term.
     */
    std::vector<double> termExpectations(const Circuit &circuit,
                                         const Hamiltonian &ham,
                                         size_t trajectories);

    /** One noisy execution; returns the post-circuit stabilizer state. */
    Tableau runTrajectory(const Circuit &circuit);

    /** Single noiseless energy evaluation. */
    static double idealEnergy(const Circuit &circuit,
                              const Hamiltonian &ham);

    const CliffordNoiseSpec &spec() const { return spec_; }

  private:
    CliffordNoiseSpec spec_;
    Rng rng_;

    /** Per-term (1-2p)^weight readout damping, hoisted out of the
     *  trajectory loop. */
    std::vector<double> dampingTable(const Hamiltonian &ham) const;
};

} // namespace eftvqa

#endif // EFTVQA_STABILIZER_NOISY_CLIFFORD_HPP
