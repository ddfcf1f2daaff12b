/**
 * @file
 * Execution-regime noise models: NISQ and pQEC (paper sections 4.4, 5.2).
 *
 * NISQ error rates (from McKay et al. and the paper's section 4.4):
 * CNOT error p_phys, non-Rz single-qubit gates p_phys/10, Rz gates 0
 * (virtual Z), measurement 10 p_phys, plus thermal relaxation on gates
 * and idle windows.
 *
 * pQEC error rates: all Clifford operations, measurement and memory at
 * the surface-code logical rate (~1e-7 for d = 11, p = 1e-3), while
 * injected Rz(theta) gates retain the near-physical injection error
 * 23 p / 30 with Z-biased structure (Lao & Criger).
 */

#ifndef EFTVQA_NOISE_NOISE_MODEL_HPP
#define EFTVQA_NOISE_NOISE_MODEL_HPP

#include "circuit/circuit.hpp"
#include "pauli/hamiltonian.hpp"
#include "sim/channels.hpp"
#include "sim/density_matrix.hpp"
#include "stabilizer/noisy_clifford.hpp"

namespace eftvqa {

/** Physical-device parameters for the NISQ regime. */
struct NisqParams
{
    double p_phys = 1e-3;     ///< two-qubit (CNOT) error rate
    double t1_ns = 100e3;     ///< relaxation time
    double t2_ns = 100e3;     ///< dephasing time (T2 <= 2 T1)
    double time_1q_ns = 35;   ///< single-qubit gate duration
    double time_2q_ns = 300;  ///< two-qubit gate duration
    double time_meas_ns = 700;///< measurement duration

    double cxError() const { return p_phys; }
    double oneQubitError() const { return p_phys / 10.0; }
    double rzError() const { return 0.0; } // virtual Z
    double measError() const { return 10.0 * p_phys; }
};

/** Logical-device parameters for the pQEC regime. */
struct PqecParams
{
    double p_phys = 1e-3; ///< underlying physical error rate
    int distance = 11;    ///< surface-code distance

    /** Per-operation logical Clifford error (~1e-7 at d=11, p=1e-3). */
    double cliffordError() const;

    /** Injected Rz error 23 p / 30 (~0.76e-3 at p = 1e-3). */
    double rzError() const;

    /** Per-code-cycle idle (memory) error. */
    double memoryErrorPerCycle() const { return cliffordError(); }

    /** Logical measurement error. */
    double measError() const { return cliffordError(); }
};

/** Pauli-noise spec for the stabilizer backend, NISQ regime. */
CliffordNoiseSpec nisqCliffordSpec(const NisqParams &params);

/** Pauli-noise spec for the stabilizer backend, pQEC regime. */
CliffordNoiseSpec pqecCliffordSpec(const PqecParams &params);

/**
 * Noise configuration for the density-matrix backend.
 */
struct DmNoiseSpec
{
    double one_qubit_depol = 0.0; ///< after each 1q Clifford/rotation-free gate
    double two_qubit_depol = 0.0; ///< after each 2q gate (both qubits' pair)
    PauliChannel rotation;        ///< after each Rz/Rx/Ry
    double meas_flip = 0.0;       ///< readout bit-flip

    bool use_relaxation = false;  ///< NISQ thermal relaxation on/off
    double t1_ns = 0.0, t2_ns = 0.0;
    double time_1q_ns = 0.0, time_2q_ns = 0.0;

    double idle_depol = 0.0;      ///< per-layer idle depolarizing (pQEC)

    /**
     * Throws std::invalid_argument naming the offending field: every
     * probability in [0, 1] and rotation px+py+pz <= 1; gate times >= 0;
     * with use_relaxation, T1 > 0, T2 > 0 and T2 <= 2 T1.
     */
    void validate() const;
};

/** Density-matrix noise spec for the NISQ regime. */
DmNoiseSpec nisqDmSpec(const NisqParams &params);

/** Density-matrix noise spec for the pQEC regime. */
DmNoiseSpec pqecDmSpec(const PqecParams &params);

/**
 * Compiles a bound circuit and the spec's channels into a DmPass
 * stream (validating the spec first). The channels follow the gates
 * they belong to — rotation or 1q depolarizing plus relaxation after a
 * 1q gate, 2q depolarizing plus relaxation after a 2q gate — and every
 * ASAP layer adds idle-window noise on the qubits it leaves idle. Under
 * a spec without noise (DmNoiseSpec{}) the stream carries the gates
 * alone: the noiseless density matrix runs it too.
 */
std::vector<DmPass> compileNoisyDmStream(const Circuit &circuit,
                                         const DmNoiseSpec &spec);

/**
 * Analytic readout damping (1 - 2 p_meas)^weight(P) of a Pauli
 * expectation under symmetric per-qubit measurement bit-flips; 1.0
 * when p_meas <= 0. Shared by every backend's meas_flip path.
 */
double readoutDampingFactor(double meas_flip, const PauliString &op);

/**
 * readoutDampingFactor for every Pauli weight 0..n_qubits: entry w is
 * bit-identical to the factor of a weight-w string, so a batch builds
 * n + 1 factors instead of one power per term.
 */
std::vector<double> readoutDampingByWeight(double meas_flip,
                                           size_t n_qubits);

} // namespace eftvqa

#endif // EFTVQA_NOISE_NOISE_MODEL_HPP
