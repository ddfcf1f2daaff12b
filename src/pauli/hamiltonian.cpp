#include "pauli/hamiltonian.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "pauli/lanczos.hpp"

namespace eftvqa {

namespace {

// FNV-1a over exact coefficient bits (no epsilon fuzz): the session
// cache must only ever merge Hamiltonians that evaluate identically.
constexpr uint64_t kFnvOffset = 0xCBF29CE484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001B3ull;

uint64_t
fnvMix(uint64_t h, uint64_t v)
{
    return (h ^ v) * kFnvPrime;
}

/** The hash of an empty term list on @p n qubits. */
uint64_t
emptyHash(size_t n)
{
    return fnvMix(kFnvOffset, n);
}

/** Fold one term: its coefficient bits, its Pauli letter (I, X, Y, Z =
 *  0..3) on every qubit, then its phase exponent. */
uint64_t
foldTerm(uint64_t h, const PauliTerm &t, size_t n)
{
    h = fnvMix(h, std::bit_cast<uint64_t>(t.coefficient));
    const auto &x = t.op.xWords();
    const auto &z = t.op.zWords();
    for (size_t q = 0; q < n; ++q) {
        const uint64_t xb = (x[q / 64] >> (q % 64)) & 1;
        const uint64_t zb = (z[q / 64] >> (q % 64)) & 1;
        h = fnvMix(h, xb ^ (3 * zb)); // (x, z) bits -> I, X, Y, Z
    }
    return fnvMix(h, static_cast<uint64_t>(t.op.phaseExponent()));
}

} // namespace

Hamiltonian::Hamiltonian(size_t n_qubits)
    : n_(n_qubits), hash_(emptyHash(n_qubits))
{
}

Hamiltonian::Hamiltonian(Hamiltonian &&other) noexcept
    : n_(other.n_), terms_(std::move(other.terms_)), hash_(other.hash_)
{
    other.terms_.clear();
    other.hash_ = emptyHash(other.n_);
}

Hamiltonian &
Hamiltonian::operator=(Hamiltonian &&other) noexcept
{
    if (this != &other) {
        n_ = other.n_;
        terms_ = std::move(other.terms_);
        hash_ = other.hash_;
        other.terms_.clear();
        other.hash_ = emptyHash(other.n_);
    }
    return *this;
}

void
Hamiltonian::addTerm(double coefficient, const PauliString &op)
{
    if (op.nQubits() != n_)
        throw std::invalid_argument("Hamiltonian::addTerm: size mismatch");
    if (!op.isHermitian())
        throw std::invalid_argument(
            "Hamiltonian::addTerm: non-Hermitian Pauli");
    terms_.emplace_back(coefficient, op);
    hash_ = foldTerm(hash_, terms_.back(), n_);
}

void
Hamiltonian::addTerm(double coefficient, const std::string &label)
{
    addTerm(coefficient, PauliString::fromLabel(label));
}

double
Hamiltonian::oneNorm() const
{
    double total = 0.0;
    for (const auto &t : terms_)
        total += std::abs(t.coefficient);
    return total;
}

void
Hamiltonian::apply(const std::vector<std::complex<double>> &v,
                   std::vector<std::complex<double>> &out) const
{
    if (n_ >= 64)
        throw std::invalid_argument("Hamiltonian::apply: n >= 64");
    const size_t dim = size_t{1} << n_;
    if (v.size() != dim)
        throw std::invalid_argument("Hamiltonian::apply: bad vector size");
    out.assign(dim, {0.0, 0.0});
    for (const auto &t : terms_) {
        // P|i> = i^e (-1)^{parity(i & z)} |i ^ x>, so H|v> row i ^ x
        // accumulates c * (+-i^e) * v[i]. Both factors are formed once
        // per term as c * (i^e * (+-1.0)), the inner loop picks one by
        // parity, and the product is std::complex's (ac - bd, ad + bc),
        // so every row sums the same values in term order.
        const uint64_t xm = t.op.xWords().empty() ? 0 : t.op.xWords()[0];
        const uint64_t zm = t.op.zWords().empty() ? 0 : t.op.zWords()[0];
        const std::complex<double> ip = t.op.phase();
        const std::complex<double> f0 = t.coefficient * (ip * 1.0);
        const std::complex<double> f1 = t.coefficient * (ip * -1.0);
        const double fr[2] = {f0.real(), f1.real()};
        const double fi[2] = {f0.imag(), f1.imag()};
        for (uint64_t i = 0; i < dim; ++i) {
            const int s = std::popcount(i & zm) & 1;
            const double cr = fr[s], ci = fi[s];
            const double a = v[i].real(), b = v[i].imag();
            std::complex<double> &o = out[i ^ xm];
            o = {o.real() + (cr * a - ci * b), o.imag() + (cr * b + ci * a)};
        }
    }
}

double
Hamiltonian::expectation(const std::vector<std::complex<double>> &v) const
{
    const size_t dim = size_t{1} << n_;
    if (v.size() != dim)
        throw std::invalid_argument(
            "Hamiltonian::expectation: bad vector size");
    double energy = 0.0;
    for (const auto &t : terms_) {
        std::complex<double> amp;
        std::complex<double> acc = 0.0;
        for (uint64_t i = 0; i < dim; ++i) {
            const uint64_t j = t.op.applyToBasis(i, amp);
            acc += std::conj(v[j]) * amp * v[i];
        }
        energy += t.coefficient * acc.real();
    }
    return energy;
}

double
Hamiltonian::groundStateEnergy(size_t max_iterations) const
{
    const size_t dim = size_t{1} << n_;
    auto apply_fn = [this](const std::vector<std::complex<double>> &v,
                           std::vector<std::complex<double>> &out) {
        apply(v, out);
    };
    return lanczosSmallestEigenvalue(apply_fn, dim, max_iterations);
}

void
Hamiltonian::compress(double tol)
{
    std::unordered_map<size_t, size_t> index_of;
    std::vector<PauliTerm> merged;
    for (const auto &t : terms_) {
        const size_t h = t.op.hash();
        auto it = index_of.find(h);
        if (it != index_of.end() && merged[it->second].op == t.op) {
            merged[it->second].coefficient += t.coefficient;
        } else {
            index_of[h] = merged.size();
            merged.push_back(t);
        }
    }
    terms_.clear();
    hash_ = emptyHash(n_);
    for (auto &t : merged)
        if (std::abs(t.coefficient) > tol) {
            terms_.push_back(std::move(t));
            hash_ = foldTerm(hash_, terms_.back(), n_);
        }
}

} // namespace eftvqa
