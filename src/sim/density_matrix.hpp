/**
 * @file
 * Dense density-matrix simulator with Kraus-channel noise.
 *
 * This is the in-tree replacement for Qiskit's AerSimulator density-matrix
 * backend the paper uses for 8- and 12-qubit studies (section 5.2.1).
 * The density operator is stored as a 2^n x 2^n row-major matrix; gates
 * act as rho -> U rho U^dag and noise as rho -> sum_k K_k rho K_k^dag.
 *
 * Noisy circuits execute as a DmPass stream: rho is viewed as a vector
 * over 2n index bits (ket bit q at position n + q, bra bit q at q), so
 * every one-qubit map is a 4x4 superoperator on bits (n + q, q) and a
 * qubit's gates and channels between two-qubit gates fold into one
 * pass (DmPassBuilder). Run from |0..0>, the stream keeps a live prefix
 * (dmLiveWidth): qubits no pass has named yet are exact |0><0| factors
 * and are not swept.
 */

#ifndef EFTVQA_SIM_DENSITY_MATRIX_HPP
#define EFTVQA_SIM_DENSITY_MATRIX_HPP

#include <complex>
#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"
#include "pauli/hamiltonian.hpp"
#include "sim/channels.hpp"
#include "sim/statevector.hpp"

namespace eftvqa {

/**
 * Version of the noisy density-matrix kernels' floating-point order.
 * RegimeSpec::key() folds it into every non-tableau regime with
 * density-matrix noise, so stores written by different kernel
 * generations never mix. Bump it whenever noisy density-matrix results
 * move, even by an ulp.
 */
inline constexpr uint64_t kNoisyDmKernelVersion = 2;

/** One pass of a noisy density-matrix stream (see DmPassBuilder). */
struct DmPass
{
    enum class Kind : uint8_t
    {
        Superop, ///< complex 4x4 superoperator carrying a gate
        Channel, ///< gate-free channel: real, block-sparse superoperator
        Pair,    ///< CX/CZ/Swap (I: none) fused with 2q depolarizing
    };

    Kind kind = Kind::Superop;
    GateType gate = GateType::I; ///< Pair: the two-qubit gate
    uint32_t q0 = 0;
    uint32_t q1 = 0;             ///< Pair: second qubit (CX target)
    double lambda = 0.0;         ///< Pair: depolarizing weight 16p/15
    Mat4 superop{};              ///< Superop/Channel, (ket << 1) | bra
};

/**
 * Compiles gates and channels into a DmPass stream. Every one-qubit map
 * (1q gate, Measure, Reset, channel) folds into a pending superoperator
 * of its qubit — later maps multiply on the left — and the pending map
 * is flushed as one pass only when a two-qubit gate touches the qubit
 * or the stream finishes. Maps on different qubits commute, so the
 * fold is exact; a noisy stream makes at most 3 passes per two-qubit
 * gate plus one per qubit.
 */
class DmPassBuilder
{
  public:
    explicit DmPassBuilder(size_t n_qubits);

    /** Fold a bound one-qubit gate, Measure or Reset. */
    void gate1q(const Gate &g);

    /** Fold a gate-free channel superoperator onto qubit q. */
    void channel(size_t q, const Mat4 &superop);

    /**
     * Flush the pair's pending maps, then append CX/CZ/Swap @p g fused
     * with a two-qubit depolarizing channel of probability @p p.
     */
    void gate2q(const Gate &g, double p);

    /** Flush every pending map and hand over the stream. */
    std::vector<DmPass> finish();

  private:
    struct Pending
    {
        Mat4 superop{};
        bool active = false;
        bool carries_gate = false;
    };

    void fold(size_t q, const Mat4 &superop, bool carries_gate);
    void flush(size_t q);

    std::vector<Pending> pending_;
    std::vector<DmPass> passes_;
};

/**
 * Live width of a DmPass stream run from |0..0> after pass @p p, given
 * the width @p m before it on an @p n_qubits register: one past the
 * highest qubit the stream has named so far, capped at @p n_qubits (a
 * pass naming a qubit >= n_qubits runs at full width, where its kernel
 * rejects it). Qubits m..n-1 are exact |0><0| factors, so rho is
 * rho_m (x) |0..0><0..0| and a pass only sweeps the 2^m x 2^m block of
 * the low qubits 0..m-1; no qubit is relabeled.
 */
size_t dmLiveWidth(const DmPass &p, size_t m, size_t n_qubits);

/**
 * Density operator on n qubits (n <= 13 supported; memory is 16 * 4^n
 * bytes). Index convention: element (i, j) = data[i * 2^n + j], where i
 * is the ket (row) index.
 *
 * Two entry points run a noisy DmPass stream through one loop:
 * runPassesFromZero() starts from |0..0> (the density-matrix backend's
 * noisy prepare), runPasses() takes whatever state rho holds.
 */
class DensityMatrix
{
  public:
    /** |0..0><0..0| on @p n_qubits qubits. */
    explicit DensityMatrix(size_t n_qubits);

    size_t nQubits() const { return n_; }
    size_t dim() const { return size_t{1} << n_; }

    /** 64-byte-aligned row-major storage (see simd::AmpVector). */
    const simd::AmpVector &data() const { return data_; }
    simd::AmpVector &data() { return data_; }

    /** Reset to |0..0><0..0|. */
    void setZeroState();

    /** Initialize from a pure state. */
    void setPureState(const Statevector &psi);

    /** Apply a one-qubit unitary. */
    void applyMatrix1q(const Mat2 &u, size_t q);

    /**
     * Apply a 4x4 unitary to the pair (qa, qb), qa indexing the high
     * bit of the 4x4 basis (conjugation: ket side then bra side).
     */
    void applyMatrix2q(const Mat4 &u, size_t qa, size_t qb);

    /** Apply a collapsed diagonal-gate run: rho_ij *= ph_i conj(ph_j). */
    void applyDiagPhase(const DiagPhaseOp &d);

    /** Conjugate by a collapsed X/CX/Swap basis permutation. */
    void applyGf2Perm(const Gf2PermOp &p);

    /** Apply a unitary gate (Measure/Reset are channels; see below). */
    void applyGate(const Gate &g);

    /**
     * Run all gates of a bound circuit (no gate noise; Measure/Reset
     * execute as their channels). Compiles to the fused op stream
     * first; repeat callers should compile once and use runCompiled().
     */
    void run(const Circuit &circuit);

    /** Execute a pre-compiled op stream (the hot path). */
    void runCompiled(const CompiledCircuit &compiled);

    /**
     * Execute a noisy DmPass stream (see DmPassBuilder) on the current
     * state, whatever it is: every pass sweeps the full matrix.
     */
    void runPasses(const std::vector<DmPass> &passes);

    /**
     * Reset to |0..0><0..0| and execute a noisy DmPass stream from
     * there, as setZeroState() then runPasses() would, but each pass
     * sweeps only the live prefix's block (dmLiveWidth), which grows in
     * place inside data() as passes name higher qubits. Every nonzero
     * entry is bit-identical to that path; an exact zero that a
     * full-width pass writes as -0 (a CZ sign flip on an entry the
     * prefix has not reached yet) reads +0, which no expectation can
     * tell apart. A pass the kernels reject throws as runPasses() would
     * and leaves a valid n-qubit matrix.
     */
    void runPassesFromZero(const std::vector<DmPass> &passes);

    /** Apply a single-qubit Kraus channel to qubit q (sum over the
     *  Kraus operators through scratch copies; the reference path). */
    void applyKraus1q(const KrausChannel &channel, size_t q);

    /** Apply a single-qubit Pauli channel to qubit q. */
    void applyPauliChannel1q(const PauliChannel &channel, size_t q);

    /**
     * Two-qubit symmetric depolarizing channel: with probability p a
     * uniformly random non-identity two-qubit Pauli is applied.
     */
    void applyDepolarizing2q(double p, size_t q0, size_t q1);

    /** Amplitude damping with decay probability gamma. */
    void applyAmplitudeDamping(double gamma, size_t q);

    /** Phase damping with parameter lambda. */
    void applyPhaseDamping(double lambda, size_t q);

    /**
     * Thermal relaxation for duration t with times T1, T2 — one pass of
     * thermalRelaxationSuperop(), matching thermalRelaxationChannel()
     * (and throwing on the same invalid times).
     */
    void applyThermalRelaxation(double t1, double t2, double t, size_t q);

    /** Non-destructive Z-basis measurement channel (full dephase of q). */
    void applyMeasurementDephase(size_t q);

    /** Reset channel: trace out q and re-prepare |0>. */
    void applyResetChannel(size_t q);

    /** Tr(P rho) for a Hermitian Pauli. */
    double expectation(const PauliString &p) const;

    /** Tr(H rho). */
    double expectation(const Hamiltonian &h) const;

    /**
     * All term expectations of @p h, aligned with h.terms(). Terms are
     * bucketed by X-mask; each bucket reads its off-diagonal band
     * rho[i, i ^ x] once and reuses the element for every term in the
     * bucket (one O(2^n) band traversal per bucket instead of one per
     * term).
     */
    std::vector<double> expectationBatch(const Hamiltonian &h) const;

    /** Diagonal Tr projections: measurement probabilities per basis state. */
    std::vector<double> diagonalProbabilities() const;

    /** Tr(rho); 1 up to roundoff for CPTP evolution. */
    double trace() const;

    /** Tr(rho^2). */
    double purity() const;

    /** <psi| rho |psi> — fidelity against a pure reference state. */
    double fidelityWithPure(const Statevector &psi) const;

    /** Probability of measuring qubit q as 1. */
    double probabilityOfOne(size_t q) const;

  private:
    size_t n_;
    simd::AmpVector data_;

    /**
     * Apply a 2x2 matrix (not necessarily unitary) to the ket or bra
     * index of qubit q. Conjugation by U is ket(U) followed by
     * bra(conj-transpose handled internally).
     */
    void applyMatrixKet(const Mat2 &m, size_t q);
    void applyMatrixBra(const Mat2 &m, size_t q);

    /*
     * The stream kernels below act on the 2^width x 2^width block
     * stored row-major at the start of data_ (width n_: the whole
     * matrix) and reject a qubit >= width.
     */

    /** Apply a 4x4 superoperator (sim/channels.hpp basis) to qubit q. */
    void applySuperop1q(const Mat4 &superop, size_t q, size_t width);

    /**
     * Apply a gate-free channel superoperator — real and block-sparse on
     * the populations / coherences, so only its 8 block entries are
     * read — to qubit q in one in-place pass. Backs every named
     * one-qubit channel.
     */
    void applyChannel1q(const Mat4 &superop, size_t q, size_t width);

    /**
     * One in-place pass over the 16-element groups of the pair (qa, qb):
     * relabel/sign each group by CX(qa, qb), CZ or Swap (I: neither),
     * then mix it toward its pair-maximally-mixed part with weight
     * @p lambda (the 2q depolarizing channel, which commutes with any
     * unitary on the pair).
     */
    void applyPairPass(GateType gate, size_t qa, size_t qb, double lambda,
                       size_t width);

    /** The pass loop of both stream entry points, from live width m. */
    void runPassesFrom(size_t m, const std::vector<DmPass> &passes);

    /**
     * Grow the live block from width m to m2 <= n_ in place: rows move
     * to the wider row stride, last row first, and the new entries are
     * zeroed (the |0><0| factors of qubits m..m2-1).
     */
    void growLive(size_t m, size_t m2);
};

} // namespace eftvqa

#endif // EFTVQA_SIM_DENSITY_MATRIX_HPP
