/**
 * @file
 * Dense density-matrix simulator with superoperator noise.
 *
 * This is the in-tree replacement for Qiskit's AerSimulator density-matrix
 * backend the paper uses for 8- and 12-qubit studies (section 5.2.1).
 * The density operator is stored as a 2^n x 2^n row-major matrix.
 *
 * Every circuit, noisy or not, executes as one DmPass stream: rho is
 * viewed as a vector over 2n index bits (ket bit q at position n + q,
 * bra bit q at q), so every one-qubit map — gate, channel, Measure or
 * Reset — is a 4x4 superoperator on bits (n + q, q), a qubit's maps
 * between two-qubit gates fold into one map (DmPassBuilder), and
 * CX/CZ/Swap relabel 16-element groups in place after applying their
 * qubits' folded maps inside each group: on the vector kernels, one
 * sweep of rho per two-qubit gate (the scalar path sweeps each map on
 * its own first). Run from |0..0>, the stream keeps a live prefix
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
 * Version of the density-matrix stream kernels' floating-point order.
 * RegimeSpec::key() folds it into every regime that can run a circuit
 * on rho, noisy or not (sim::canRunDensityMatrix), so stores written by
 * different kernel generations never mix. Bump it whenever
 * density-matrix results move, even by an ulp.
 */
inline constexpr uint64_t kNoisyDmKernelVersion = 2;

/** One pass of a density-matrix stream (see DmPassBuilder). */
struct DmPass
{
    enum class Kind : uint8_t
    {
        Map,  ///< map[0] on q0 alone: a map still pending at the end
        Pair, ///< map[0] on q0, map[1] on q1, then CX/CZ/Swap fused with
              ///< 2q depolarizing (lambda >= 0)
    };

    Kind kind = Kind::Map;
    GateType gate = GateType::I; ///< Pair: the two-qubit gate
    uint32_t q0 = 0;
    uint32_t q1 = 0;             ///< Pair: second qubit (CX target)
    double lambda = 0.0;         ///< Pair: depolarizing weight 16p/15
    DmMap map[2];                ///< map[0] on q0; Pair: map[1] on q1
};

/**
 * Compiles gates and channels into a DmPass stream. Every one-qubit map
 * (1q gate, Measure, Reset, channel) folds into a pending superoperator
 * of its qubit — later maps multiply on the left. A two-qubit gate's
 * Pair pass takes its qubits' pending maps, which run q0's first and
 * before the gate (see DensityMatrix::applyPairPass); a map
 * still pending when the stream finishes becomes a Map pass of its
 * own. Maps on different qubits commute, so the fold is exact; a
 * stream makes one pass per two-qubit gate plus at most one per qubit.
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
     * Append CX/CZ/Swap @p g fused with a two-qubit depolarizing
     * channel of probability @p p, carrying the pair's pending maps.
     */
    void gate2q(const Gate &g, double p);

    /** Append every pending map as a Map pass and hand over the stream. */
    std::vector<DmPass> finish();

  private:
    void fold(size_t q, const Mat4 &superop, bool carries_gate);

    /** Qubit q's pending map, leaving none. */
    DmMap take(size_t q);

    std::vector<DmMap> pending_;
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
 * rho evolves only through a DmPass stream, by two entry points that
 * share one loop: runPassesFromZero() starts from |0..0> (the
 * density-matrix backend's prepare, noisy or not), runPasses() takes
 * whatever state rho holds and sweeps it at full width.
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

    /** Initialize from a pure state. */
    void setPureState(const Statevector &psi);

    /**
     * Execute a DmPass stream (see DmPassBuilder) on the current state,
     * whatever it is: every pass sweeps the full matrix. Before each
     * pass the calling thread's cancel token is checked
     * (cancelCheckpoint()): a tripped one throws between passes and
     * leaves a valid n-qubit matrix.
     */
    void runPasses(const std::vector<DmPass> &passes);

    /**
     * Reset to |0..0><0..0| and execute a DmPass stream from there, as
     * runPasses() on a fresh matrix would, but each pass sweeps only
     * the live prefix's block (dmLiveWidth), which grows in
     * place inside data() as passes name higher qubits. Every nonzero
     * entry is bit-identical to that path; an exact zero that a
     * full-width pass writes as -0 (a CZ sign flip on an entry the
     * prefix has not reached yet) reads +0, which no expectation can
     * tell apart. A pass the kernels reject, or a tripped cancel
     * token, throws as in runPasses() and leaves a valid n-qubit matrix.
     */
    void runPassesFromZero(const std::vector<DmPass> &passes);

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

    /*
     * The stream kernels below act on the 2^width x 2^width block
     * stored row-major at the start of data_ (width n_: the whole
     * matrix) and reject a qubit >= width before touching it.
     */

    /**
     * Apply a one-qubit map to qubit q in one in-place pass: a
     * superoperator as a 4x4 matrix on the qubit's (ket, bra) bits, a
     * gate-free channel — real and block-sparse on the populations /
     * coherences — through its 8 block entries only.
     */
    void applyMap1q(const DmMap &map, size_t q, size_t width);

    /**
     * Pair pass @p p: map[0] on q0, map[1] on q1, then each 16-element
     * group of the pair relabeled/signed by CX(q0, q1), CZ or Swap and
     * mixed toward its pair-maximally-mixed part with weight lambda
     * (the 2q depolarizing channel, which commutes with any unitary on
     * the pair). The vector kernel (simd::tryPairPass) does it all in
     * one sweep, applying the maps inside each group with applyMap1q's
     * arithmetic; any other shape, and the scalar build, run
     * applyMap1q on q0, then on q1, then the bare pair sweep — the
     * same bits.
     */
    void applyPairPass(const DmPass &p, size_t width);

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
