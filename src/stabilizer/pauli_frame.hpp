/**
 * @file
 * Unsigned Pauli error frame, the propagation half of Stim's frame
 * simulator (Gidney, "Stim: a fast stabilizer circuit simulator",
 * Quantum 5, 497, 2021).
 *
 * A measurement-free Clifford circuit U hit by Pauli errors prepares
 * F U|0...0>, where the frame F is every error conjugated through the
 * gates after it. So one noiseless tableau run of U serves every
 * trajectory, and a trajectory only has to track F, which costs O(1)
 * per gate instead of the tableau's O(n). Signs never matter: F flips
 * <T> to -<T> exactly when F anticommutes with T, so the frame keeps
 * X and Z bits only.
 */

#ifndef EFTVQA_STABILIZER_PAULI_FRAME_HPP
#define EFTVQA_STABILIZER_PAULI_FRAME_HPP

#include <cstdint>
#include <vector>

#include "circuit/gate.hpp"
#include "common/rng.hpp"
#include "pauli/pauli_string.hpp"

namespace eftvqa {

/** Unsigned n-qubit Pauli frame: X and Z bit words, 64 qubits a word. */
class PauliFrame
{
  public:
    /** The identity frame on @p n_qubits qubits. */
    explicit PauliFrame(size_t n_qubits);

    /** Back to the identity frame: the error-free start of a run. */
    void setZeroState();

    /** @name Conjugation through Clifford gates, signs dropped
     *  @{ */
    void h(size_t q);
    /** S and S^dag act alike on an unsigned frame. */
    void s(size_t q);
    void cx(size_t control, size_t target);
    void cz(size_t a, size_t b);
    void swap(size_t a, size_t b);
    /** @} */

    /** @name Errors: multiply a Pauli on qubit q into the frame
     *  @{ */
    void x(size_t q) { x_[q / 64] ^= bit(q); }
    void y(size_t q)
    {
        x_[q / 64] ^= bit(q);
        z_[q / 64] ^= bit(q);
    }
    void z(size_t q) { z_[q / 64] ^= bit(q); }
    /** @} */

    /**
     * Conjugate the frame through a gate: every type Tableau::applyGate
     * accepts except Measure and Reset, whose random outcomes a frame
     * cannot follow (they throw std::invalid_argument, as do T and
     * non-Clifford angles). X, Y and Z gates leave the frame unchanged.
     * @p rng is there for interface parity with Tableau::applyGate; no
     * gate a frame accepts draws from it.
     */
    void applyGate(const Gate &g, Rng &rng);

    /** True when the frame anticommutes with @p p (signs ignored). */
    bool anticommutes(const PauliString &p) const;

  private:
    size_t n_;
    std::vector<uint64_t> x_;
    std::vector<uint64_t> z_;

    static uint64_t bit(size_t q) { return uint64_t{1} << (q % 64); }
    bool xBit(size_t q) const { return (x_[q / 64] & bit(q)) != 0; }
    bool zBit(size_t q) const { return (z_[q / 64] & bit(q)) != 0; }
};

} // namespace eftvqa

#endif // EFTVQA_STABILIZER_PAULI_FRAME_HPP
