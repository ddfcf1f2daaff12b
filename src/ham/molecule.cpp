#include "ham/molecule.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

#include "common/rng.hpp"

namespace eftvqa {

std::string
MoleculeSpec::name() const
{
    std::string base;
    switch (molecule) {
      case Molecule::H2O: base = "H2O"; break;
      case Molecule::H6: base = "H6"; break;
      case Molecule::LiH: base = "LiH"; break;
    }
    return base + "(l=" + std::to_string(bond_length).substr(0, 3) + "A)";
}

int
moleculeTermCount(Molecule molecule)
{
    switch (molecule) {
      case Molecule::H2O: return 367;
      case Molecule::H6: return 919;
      case Molecule::LiH: return 631;
    }
    throw std::logic_error("moleculeTermCount: unreachable");
}

namespace {

uint64_t
moleculeSeed(const MoleculeSpec &spec)
{
    uint64_t seed = 0xC0FFEEull;
    seed = seed * 31 + static_cast<uint64_t>(spec.molecule);
    seed = seed * 31 +
           static_cast<uint64_t>(std::llround(spec.bond_length * 10.0));
    return seed;
}

/** Random Hermitian Pauli of the given weight on distinct sites
 *  (n <= 64: the drawn sites live in one mask word). */
PauliString
randomString(Rng &rng, int n, int weight, bool hopping_like)
{
    weight = std::min(weight, n); // a register has only n distinct sites
    PauliString p(static_cast<size_t>(n));
    uint64_t used = 0;
    for (int drawn = 0; drawn < weight;) {
        const int q = static_cast<int>(rng.uniformInt(
            static_cast<uint64_t>(n)));
        if ((used >> q) & 1)
            continue;
        used |= uint64_t{1} << q;
        ++drawn;
        Pauli pl;
        if (hopping_like) {
            // X/Y pairs dominate one- and two-body excitation strings.
            pl = rng.bernoulli(0.5) ? Pauli::X : Pauli::Y;
        } else {
            const double u = rng.uniform();
            pl = u < 0.5 ? Pauli::Z : (u < 0.75 ? Pauli::X : Pauli::Y);
        }
        p.set(static_cast<size_t>(q), pl);
    }
    return p;
}

} // namespace

Hamiltonian
moleculeHamiltonian(const MoleculeSpec &spec)
{
    const int n = spec.n_qubits;
    if (n > 64)
        throw std::invalid_argument(
            "moleculeHamiltonian: n_qubits must be <= 64 (got " +
            std::to_string(n) + ")");
    const int target_terms = moleculeTermCount(spec.molecule);
    Rng rng(moleculeSeed(spec));

    // Stretched geometries (large bond length) flatten the mean-field
    // diagonal and enhance correlated terms.
    const double stretch =
        std::clamp((spec.bond_length - 1.0) / 3.5, 0.0, 1.0);
    const double diag_scale = 1.5 * (1.0 - 0.7 * stretch);
    const double corr_scale = 0.15 + 0.45 * stretch;

    Hamiltonian h(static_cast<size_t>(n));

    // Identity offset (nuclear repulsion + core energy analogue).
    h.addTerm(-5.0 - 2.0 * stretch, PauliString(static_cast<size_t>(n)));

    // Single-qubit Z terms: orbital occupation energies.
    for (int q = 0; q < n; ++q) {
        const double coeff =
            diag_scale * (0.4 + 0.6 * rng.uniform()) *
            (rng.bernoulli(0.8) ? -1.0 : 1.0);
        h.addTerm(coeff, PauliString::single(static_cast<size_t>(n),
                                             static_cast<size_t>(q),
                                             Pauli::Z));
    }

    // Two-qubit ZZ terms: Coulomb / exchange analogues on all pairs.
    for (int i = 0; i < n; ++i) {
        for (int j = i + 1; j < n; ++j) {
            PauliString zz(static_cast<size_t>(n));
            zz.set(static_cast<size_t>(i), Pauli::Z);
            zz.set(static_cast<size_t>(j), Pauli::Z);
            h.addTerm(0.1 + 0.2 * rng.uniform(), zz);
        }
    }

    // Excitation strings: low-weight hopping plus a decaying tail of
    // higher-weight correlated strings until the term budget is met.
    std::unordered_set<size_t> seen;
    for (const auto &t : h.terms())
        seen.insert(t.op.hash());

    int weight = 2;
    // Small active spaces cannot host the paper's full term count: the
    // distinct-string pool at the drawn weights is finite, so a long
    // streak of duplicate draws means the register is saturated. The
    // streak bound is far beyond anything a healthy configuration hits
    // (duplicates there are rare), so paper-sized registers generate
    // identical Hamiltonians with or without it.
    int duplicate_streak = 0;
    while (static_cast<int>(h.nTerms()) < target_terms &&
           duplicate_streak < 10000) {
        const bool hopping = weight <= 4;
        PauliString p = randomString(rng, n, weight, hopping);
        if (p.isIdentity() || seen.count(p.hash())) {
            // Re-draw; widen weight occasionally to guarantee progress.
            weight = 2 + static_cast<int>(rng.uniformInt(5));
            ++duplicate_streak;
            continue;
        }
        duplicate_streak = 0;
        seen.insert(p.hash());
        const double decay = std::exp(-0.45 * (weight - 2));
        const double coeff =
            corr_scale * decay * rng.normal(0.0, 1.0) * 0.5;
        h.addTerm(coeff, p);
        weight = 2 + static_cast<int>(rng.uniformInt(5));
    }
    return h;
}

std::vector<MoleculeSpec>
paperMoleculeBenchmarks()
{
    std::vector<MoleculeSpec> specs;
    for (Molecule m : {Molecule::H2O, Molecule::H6, Molecule::LiH})
        for (double l : {1.0, 4.5})
            specs.push_back({m, l, 12});
    return specs;
}

} // namespace eftvqa
