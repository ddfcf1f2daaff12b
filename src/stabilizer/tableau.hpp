/**
 * @file
 * Aaronson–Gottesman stabilizer tableau simulator.
 *
 * This is the in-tree replacement for Stim in the paper's large-scale
 * Clifford-state VQE evaluation (section 5.2.2): circuits up to 100+
 * logical qubits with Rz angles restricted to multiples of pi/2 are
 * simulated exactly, including Pauli expectation values of Hamiltonian
 * terms via the destabilizer half of the tableau.
 */

#ifndef EFTVQA_STABILIZER_TABLEAU_HPP
#define EFTVQA_STABILIZER_TABLEAU_HPP

#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "pauli/hamiltonian.hpp"
#include "pauli/pauli_string.hpp"

namespace eftvqa {

/**
 * Quarter turns k in [0, 4) of a bound rotation gate, whose angle must
 * be k * pi/2 modulo 2 pi. The one rounding rule every stabilizer-side
 * consumer of Rz/Rx/Ry shares; throws std::invalid_argument on any
 * other angle.
 */
int cliffordQuarterTurns(const Gate &g);

/**
 * Stabilizer state of n qubits: 2n rows (destabilizers then stabilizers),
 * each a signed Pauli, tracked per Aaronson & Gottesman (2004).
 */
class Tableau
{
  public:
    /** |0...0> on @p n_qubits qubits. */
    explicit Tableau(size_t n_qubits);

    size_t nQubits() const { return n_; }

    /** Reset to |0...0>. */
    void setZeroState();

    /** @name Clifford gates
     *  @{ */
    void h(size_t q);
    void s(size_t q);
    void sdg(size_t q);
    void x(size_t q);
    void y(size_t q);
    void z(size_t q);
    void cx(size_t control, size_t target);
    void cz(size_t a, size_t b);
    void swap(size_t a, size_t b);
    /** @} */

    /**
     * Apply a Hermitian Pauli as a unitary (used for injected noise;
     * signs of anticommuting rows flip).
     */
    void applyPauli(const PauliString &p);

    /**
     * Apply a gate. Rotations must carry angles that are multiples of
     * pi/2 (the Clifford-restriction the paper imposes at scale);
     * Measure consumes randomness.
     */
    void applyGate(const Gate &g, Rng &rng);

    /** Run a bound Clifford circuit. */
    void run(const Circuit &circuit, Rng &rng);

    /** Z-basis measurement of qubit q. */
    int measure(size_t q, Rng &rng);

    /**
     * <P> for a Hermitian Pauli: +1/-1 when +/-P is in the stabilizer
     * group, 0 when P anticommutes with some stabilizer.
     */
    int expectation(const PauliString &p) const;

    /** Sum of coefficient * <P_k> over the Hamiltonian terms. */
    double energy(const Hamiltonian &h) const;

    /** Stabilizer row @p i (0..n-1) as a signed PauliString. */
    PauliString stabilizer(size_t i) const;

    /** Destabilizer row @p i as a signed PauliString. */
    PauliString destabilizer(size_t i) const;

  private:
    size_t n_;
    size_t words_;
    // Row-major storage: rows 0..n-1 destabilizers, n..2n-1 stabilizers.
    std::vector<uint64_t> x_;
    std::vector<uint64_t> z_;
    std::vector<uint8_t> r_; ///< sign bit per row

    uint64_t *xRow(size_t row) { return &x_[row * words_]; }
    uint64_t *zRow(size_t row) { return &z_[row * words_]; }
    const uint64_t *xRow(size_t row) const { return &x_[row * words_]; }
    const uint64_t *zRow(size_t row) const { return &z_[row * words_]; }

    bool xBit(size_t row, size_t q) const;
    bool zBit(size_t row, size_t q) const;

    /** AG rowsum: row h *= row i with exact sign tracking. */
    void rowsum(size_t h, size_t i);

    /** rowsum into an external scratch row. */
    void rowsumInto(std::vector<uint64_t> &sx, std::vector<uint64_t> &sz,
                    int &sr, size_t i) const;

    bool rowAnticommutesWith(size_t row, const PauliString &p) const;

    PauliString rowToPauli(size_t row) const;
};

} // namespace eftvqa

#endif // EFTVQA_STABILIZER_TABLEAU_HPP
