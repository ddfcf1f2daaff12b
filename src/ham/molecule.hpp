/**
 * @file
 * Synthetic molecular Hamiltonians (paper section 5.1.2 substitution).
 *
 * The paper builds H2O, H6 and LiH Hamiltonians with PySCF + Qiskit
 * Nature (active space of six orbitals -> 12 qubits) at two bond lengths
 * (1 Angstrom and 4.5 Angstrom). Those toolchains are unavailable here,
 * so we generate deterministic molecular-like surrogates with the exact
 * term counts the paper reports (H2O: 367, H6: 919, LiH: 631):
 *
 *  - an identity offset and strong single-qubit Z terms (mean-field
 *    diagonal, dominant near equilibrium),
 *  - two-qubit ZZ "Coulomb/exchange" terms,
 *  - low-weight XX/YY-type hopping strings and a tail of higher-weight
 *    excitation strings with exponentially decaying coefficients.
 *
 * The "bond length" knob changes the coefficient distribution: stretched
 * geometries flatten the Z diagonal and boost correlated terms, which is
 * what makes stretched molecules harder for VQE — the qualitative
 * behaviour the paper's chemistry benchmarks probe. All downstream code
 * paths (grouping, expectation evaluation, noise damping per weight)
 * are identical to a real molecular Hamiltonian's.
 */

#ifndef EFTVQA_HAM_MOLECULE_HPP
#define EFTVQA_HAM_MOLECULE_HPP

#include <string>
#include <vector>

#include "pauli/hamiltonian.hpp"

namespace eftvqa {

/** The paper's chemistry benchmark set. */
enum class Molecule { H2O, H6, LiH };

/** Benchmark descriptor. */
struct MoleculeSpec
{
    Molecule molecule = Molecule::H2O;
    double bond_length = 1.0; ///< Angstrom; the paper uses 1.0 and 4.5
    int n_qubits = 12;

    std::string name() const;
};

/** Term counts matching the paper (H2O 367, H6 919, LiH 631). */
int moleculeTermCount(Molecule molecule);

/** Deterministic surrogate Hamiltonian for a benchmark configuration.
 *  Throws std::invalid_argument above 64 qubits. */
Hamiltonian moleculeHamiltonian(const MoleculeSpec &spec);

/** All six paper configurations (3 molecules x 2 bond lengths). */
std::vector<MoleculeSpec> paperMoleculeBenchmarks();

} // namespace eftvqa

#endif // EFTVQA_HAM_MOLECULE_HPP
