/**
 * @file
 * Weighted sums of Pauli strings (observables / Hamiltonians).
 *
 * VQE loss functions (paper section 2.1) are energies <psi|H|psi> of
 * Hamiltonians expressed as sparse Pauli sums. This class stores the terms,
 * applies H to statevectors matrix-free, and exposes exact ground-state
 * energies through the Lanczos solver (paper section 5.3.1 uses exact
 * diagonalization for 8- and 12-qubit reference energies).
 */

#ifndef EFTVQA_PAULI_HAMILTONIAN_HPP
#define EFTVQA_PAULI_HAMILTONIAN_HPP

#include <complex>
#include <string>
#include <vector>

#include "pauli/pauli_string.hpp"

namespace eftvqa {

/** One Hamiltonian term: real coefficient times a Hermitian Pauli. */
struct PauliTerm
{
    double coefficient = 0.0;
    PauliString op;

    PauliTerm() = default;
    PauliTerm(double c, PauliString p) : coefficient(c), op(std::move(p)) {}
};

/**
 * H = sum_k c_k P_k with real c_k and Hermitian P_k.
 */
class Hamiltonian
{
  public:
    /** Empty Hamiltonian on @p n_qubits qubits. */
    explicit Hamiltonian(size_t n_qubits = 0);

    Hamiltonian(const Hamiltonian &) = default;
    Hamiltonian &operator=(const Hamiltonian &) = default;
    /** A moved-from Hamiltonian is left empty on its qubits, with the
     *  content hash of an empty term list. */
    Hamiltonian(Hamiltonian &&other) noexcept;
    Hamiltonian &operator=(Hamiltonian &&other) noexcept;

    /** Number of qubits. */
    size_t nQubits() const { return n_; }

    /** Number of stored terms. */
    size_t nTerms() const { return terms_.size(); }

    /** Append c * P. Throws if P is non-Hermitian or the size differs. */
    void addTerm(double coefficient, const PauliString &op);

    /** Append c * P for a label such as "XXI". */
    void addTerm(double coefficient, const std::string &label);

    /** Term access. */
    const std::vector<PauliTerm> &terms() const { return terms_; }

    /** Sum of |c_k| — an upper bound on the spectral radius. */
    double oneNorm() const;

    /**
     * Matrix-free H|v>: @p out must have size 2^n. Works for n <= 24
     * (dense vector); the Clifford path never calls this.
     */
    void apply(const std::vector<std::complex<double>> &v,
               std::vector<std::complex<double>> &out) const;

    /** <v|H|v> for a normalized dense vector. */
    double expectation(const std::vector<std::complex<double>> &v) const;

    /**
     * Exact smallest eigenvalue via Lanczos (see lanczos.hpp). Suitable
     * for n <= ~20; the paper's density-matrix studies use n <= 12.
     */
    double groundStateEnergy(size_t max_iterations = 300) const;

    /** Merge duplicate Pauli strings, dropping |c| below @p tol. */
    void compress(double tol = 1e-12);

    /**
     * Order-sensitive 64-bit hash of the term list (width plus every
     * term's exact coefficient bits, Pauli letters and phase). Two
     * Hamiltonians hash equal iff they would produce identical term
     * expectations term for term — this is the Hamiltonian half of the
     * session-level energy-cache key (vqa/experiment.hpp), the
     * counterpart of Circuit::contentHash(). O(1): the FNV-1a fold is
     * kept up to date by addTerm and compress.
     */
    uint64_t contentHash() const { return hash_; }

  private:
    size_t n_;
    std::vector<PauliTerm> terms_;
    uint64_t hash_; ///< FNV-1a fold of n_ and terms_
};

} // namespace eftvqa

#endif // EFTVQA_PAULI_HAMILTONIAN_HPP
