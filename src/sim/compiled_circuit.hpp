/**
 * @file
 * Circuit compilation layer for the statevector.
 *
 * `Statevector::run` used to make one full-state traversal per gate
 * through generic kernels. CompiledCircuit compiles a bound Circuit
 * once into a short fused op stream:
 *
 *  - adjacent one-qubit gates on the same qubit merge into one 2x2
 *    unitary (and keep merging into a neighbouring two-qubit op);
 *  - runs of diagonal gates (Z/S/Sdg/T/Tdg/Rz/CZ) collapse into a
 *    single phase sweep, applied in one pass via a per-pattern phase
 *    table (or per-qubit factors when the run touches too many qubits
 *    to table);
 *  - runs of basis-permutation gates (X/CX/Swap) fold into one
 *    GF(2)-affine index permutation |i> -> |A i xor f>, executed by a
 *    specialized kernel (xor-mask swap, pair-indexed CX/Swap, or a
 *    general gather for longer CX cascades);
 *  - one-qubit gates adjacent to a CX/CZ are absorbed into a fused 4x4
 *    two-qubit kernel that iterates the dim/4 relevant index groups.
 *
 * Fusion respects program order per qubit: a gate only merges backward
 * past ops that touch none of its qubits (or, for diagonal gates, past
 * other diagonal ops). Measure/Reset are per-qubit fusion barriers and
 * survive as explicit ops, which the statevector rejects exactly as the
 * uncompiled path did (the density matrix runs them as channels of its
 * own DmPass stream, compiled from the source circuit).
 *
 * The statevector executes the stream op by op in stream order, each
 * op one full-state sweep on the calling thread. The stream holds no
 * data that depends on the SIMD ISA or the host.
 *
 * Statevector::run compiles its circuit inline on every call; the
 * estimation stack keeps no memo of compiled circuits, since a circuit
 * an optimizer proposes again is already an energy-cache hit. The op
 * stream is immutable, so a caller that re-runs one circuit may
 * compile it once and call runCompiled.
 */

#ifndef EFTVQA_SIM_COMPILED_CIRCUIT_HPP
#define EFTVQA_SIM_COMPILED_CIRCUIT_HPP

#include <complex>
#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"
#include "sim/channels.hpp"

namespace eftvqa {

/** Opcodes of the compiled stream. */
enum class CompiledOpKind : uint8_t
{
    Unitary1q, ///< fused 2x2 unitary on one qubit
    Unitary2q, ///< fused 4x4 unitary on a qubit pair
    DiagPhase, ///< diagonal phase sweep (collapsed Z/S/T/Rz/CZ run)
    Gf2Perm,   ///< GF(2)-affine basis permutation (X/CX/Swap run)
    Measure,   ///< measurement barrier (the statevector rejects it)
    Reset,     ///< reset barrier (the statevector rejects it)
};

/**
 * Collapsed run of diagonal gates: amplitude i picks up the phase
 *
 *   phase(i) = global * prod_{q in factors, bit q set} ratio_q
 *                     * prod_{m in cz_masks} (-1 iff (i & m) == m)
 *
 * When the run touches few enough qubits the phases are pre-tabled
 * over the participating-bit patterns (`table`), so execution is one
 * gather + one complex multiply per amplitude.
 */
struct DiagPhaseOp
{
    /** Participating qubits, ascending; bit j of a table index is the
     *  state of qubit `qubits[j]`. */
    std::vector<uint32_t> qubits;

    /** Phase per participating-bit pattern (size 1 << qubits.size());
     *  empty when the run is too wide to table. */
    std::vector<std::complex<double>> table;

    /** Phase of the all-zeros pattern (product of the |0>-branch
     *  eigenvalues, e.g. e^{-i theta/2} per Rz). */
    std::complex<double> global{1.0, 0.0};

    /** (qubit, |1>-to-|0> eigenvalue ratio) per qubit whose ratio is
     *  not exactly 1. */
    std::vector<std::pair<uint32_t, std::complex<double>>> factors;

    /** Two-bit masks of surviving (odd-multiplicity) CZ pairs. */
    std::vector<uint64_t> cz_masks;

    /** True when `qubits` is the contiguous range [0, qubits.size()):
     *  the table gather degenerates to a single mask. */
    bool contiguous = false;

    bool hasTable() const { return !table.empty(); }

    /** Phase picked up by basis state i (scalar path; the statevector
     *  kernel inlines the table gather instead). */
    std::complex<double> phaseAt(uint64_t i) const;
};

/** Execution strategy for a Gf2Perm op, classified at compile time. */
enum class Gf2PermClass : uint8_t
{
    XorMask,    ///< A = I: |i> -> |i xor f| (a run of X gates)
    SingleCX,   ///< one CX(control, target), in-place pair swap
    SingleSwap, ///< one Swap(a, b), in-place pair swap
    General,    ///< arbitrary affine map, gather through a scratch pass
};

/**
 * Collapsed run of X/CX/Swap gates: |i> -> |A i xor f> with A an
 * invertible GF(2) matrix (rows[b] is the input mask whose parity
 * gives output bit b). `inv_rows` holds A^-1 for the gather kernel:
 * out[y] = in[A^-1 (y xor f)].
 */
struct Gf2PermOp
{
    std::vector<uint64_t> rows;
    std::vector<uint64_t> inv_rows;
    uint64_t flips = 0;
    Gf2PermClass cls = Gf2PermClass::General;
    uint32_t q0 = 0; ///< control / swap-a for the single-gate classes
    uint32_t q1 = 0; ///< target / swap-b for the single-gate classes

    /** Apply the forward map to a basis index. */
    uint64_t apply(uint64_t i) const;

    /** Apply the inverse map to a basis index. */
    uint64_t applyInverse(uint64_t y) const;
};

/** One compiled operation; payload indexes the side tables. */
struct CompiledOp
{
    CompiledOpKind kind = CompiledOpKind::Unitary1q;
    uint32_t q0 = 0;
    uint32_t q1 = 0;
    uint32_t payload = 0;
};

/**
 * A Circuit compiled to the fused op stream. Immutable after
 * construction; keeps the source circuit for the backends that do not
 * execute the fused ops: the tableau runs it gate by gate, and the
 * density matrix compiles it, with any channels, into a DmPass stream.
 */
class CompiledCircuit
{
  public:
    /**
     * Compile a bound circuit. Throws std::invalid_argument on unbound
     * parameters or registers wider than 64 qubits (the dense backends
     * cap far below that; wider circuits stay on the gate-by-gate
     * path).
     */
    explicit CompiledCircuit(const Circuit &circuit);

    const Circuit &source() const { return source_; }
    size_t nQubits() const { return source_.nQubits(); }

    const std::vector<CompiledOp> &ops() const { return ops_; }
    size_t nOps() const { return ops_.size(); }
    size_t nSourceGates() const { return source_.nGates(); }

    const Mat2 &mat1(const CompiledOp &op) const { return mats1_[op.payload]; }
    const Mat4 &mat2(const CompiledOp &op) const { return mats2_[op.payload]; }
    const DiagPhaseOp &diag(const CompiledOp &op) const
    {
        return diags_[op.payload];
    }
    const Gf2PermOp &perm(const CompiledOp &op) const
    {
        return perms_[op.payload];
    }

    /** Count of ops of a given kind (fusion-structure tests). */
    size_t countKind(CompiledOpKind kind) const;

  private:
    Circuit source_;
    std::vector<CompiledOp> ops_;
    std::vector<Mat2> mats1_;
    std::vector<Mat4> mats2_;
    std::vector<DiagPhaseOp> diags_;
    std::vector<Gf2PermOp> perms_;
};

/**
 * The 4x4 unitary of a two-qubit gate expressed on an arbitrary qubit
 * ordering: basis index (bit_{qa} << 1) | bit_{qb}. Exposed for the
 * pair-indexed kernels and their tests.
 */
Mat4 gateMatrix2q(const Gate &g, uint32_t qa, uint32_t qb);

/** Row-major 4x4 product a*b. */
Mat4 matmul4(const Mat4 &a, const Mat4 &b);

/** Kronecker lift of 2x2 factors onto (qa, qb) ordering: ua acts on
 *  the high index bit, ub on the low. */
Mat4 kron2q(const Mat2 &ua, const Mat2 &ub);

} // namespace eftvqa

#endif // EFTVQA_SIM_COMPILED_CIRCUIT_HPP
