#include "stabilizer/tableau.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>

namespace eftvqa {

namespace {

constexpr size_t kWordBits = 64;

/**
 * Aaronson–Gottesman phase function: exponent of i contributed by
 * multiplying the single-qubit Pauli (x1,z1) by (x2,z2).
 */
int
gPhase(int x1, int z1, int x2, int z2)
{
    if (x1 == 0 && z1 == 0)
        return 0;
    if (x1 == 1 && z1 == 1)
        return z2 - x2;
    if (x1 == 1 && z1 == 0)
        return z2 * (2 * x2 - 1);
    return x2 * (1 - 2 * z2);
}

} // namespace

int
cliffordQuarterTurns(const Gate &g)
{
    const double ratio = g.angle / (M_PI / 2.0);
    const double rounded = std::round(ratio);
    if (std::abs(ratio - rounded) > 1e-9)
        throw std::invalid_argument(
            "cliffordQuarterTurns: non-Clifford rotation angle");
    int k = static_cast<int>(rounded) % 4;
    return k < 0 ? k + 4 : k;
}

Tableau::Tableau(size_t n_qubits)
    : n_(n_qubits), words_((n_qubits + kWordBits - 1) / kWordBits)
{
    if (n_ == 0)
        throw std::invalid_argument("Tableau: need at least one qubit");
    x_.assign(2 * n_ * words_, 0);
    z_.assign(2 * n_ * words_, 0);
    r_.assign(2 * n_, 0);
    setZeroState();
}

void
Tableau::setZeroState()
{
    std::fill(x_.begin(), x_.end(), 0);
    std::fill(z_.begin(), z_.end(), 0);
    std::fill(r_.begin(), r_.end(), 0);
    for (size_t i = 0; i < n_; ++i) {
        // Destabilizer i = X_i, stabilizer i = Z_i.
        xRow(i)[i / kWordBits] |= uint64_t{1} << (i % kWordBits);
        zRow(n_ + i)[i / kWordBits] |= uint64_t{1} << (i % kWordBits);
    }
}

bool
Tableau::xBit(size_t row, size_t q) const
{
    return (xRow(row)[q / kWordBits] >> (q % kWordBits)) & 1;
}

bool
Tableau::zBit(size_t row, size_t q) const
{
    return (zRow(row)[q / kWordBits] >> (q % kWordBits)) & 1;
}

void
Tableau::h(size_t q)
{
    const size_t w = q / kWordBits;
    const uint64_t m = uint64_t{1} << (q % kWordBits);
    for (size_t row = 0; row < 2 * n_; ++row) {
        uint64_t &xw = xRow(row)[w];
        uint64_t &zw = zRow(row)[w];
        r_[row] ^= static_cast<uint8_t>(((xw & zw & m) != 0) ? 1 : 0);
        const uint64_t xv = xw & m;
        const uint64_t zv = zw & m;
        xw = (xw & ~m) | zv;
        zw = (zw & ~m) | xv;
    }
}

void
Tableau::s(size_t q)
{
    const size_t w = q / kWordBits;
    const uint64_t m = uint64_t{1} << (q % kWordBits);
    for (size_t row = 0; row < 2 * n_; ++row) {
        uint64_t &xw = xRow(row)[w];
        uint64_t &zw = zRow(row)[w];
        r_[row] ^= static_cast<uint8_t>(((xw & zw & m) != 0) ? 1 : 0);
        zw ^= xw & m;
    }
}

void
Tableau::sdg(size_t q)
{
    const size_t w = q / kWordBits;
    const uint64_t m = uint64_t{1} << (q % kWordBits);
    for (size_t row = 0; row < 2 * n_; ++row) {
        uint64_t &xw = xRow(row)[w];
        uint64_t &zw = zRow(row)[w];
        r_[row] ^= static_cast<uint8_t>(((xw & ~zw & m) != 0) ? 1 : 0);
        zw ^= xw & m;
    }
}

void
Tableau::x(size_t q)
{
    const size_t w = q / kWordBits;
    const uint64_t m = uint64_t{1} << (q % kWordBits);
    for (size_t row = 0; row < 2 * n_; ++row)
        r_[row] ^= static_cast<uint8_t>(((zRow(row)[w] & m) != 0) ? 1 : 0);
}

void
Tableau::z(size_t q)
{
    const size_t w = q / kWordBits;
    const uint64_t m = uint64_t{1} << (q % kWordBits);
    for (size_t row = 0; row < 2 * n_; ++row)
        r_[row] ^= static_cast<uint8_t>(((xRow(row)[w] & m) != 0) ? 1 : 0);
}

void
Tableau::y(size_t q)
{
    const size_t w = q / kWordBits;
    const uint64_t m = uint64_t{1} << (q % kWordBits);
    for (size_t row = 0; row < 2 * n_; ++row) {
        const bool flip = ((xRow(row)[w] ^ zRow(row)[w]) & m) != 0;
        r_[row] ^= static_cast<uint8_t>(flip ? 1 : 0);
    }
}

void
Tableau::cx(size_t control, size_t target)
{
    const size_t wc = control / kWordBits;
    const size_t wt = target / kWordBits;
    const uint64_t mc = uint64_t{1} << (control % kWordBits);
    const uint64_t mt = uint64_t{1} << (target % kWordBits);
    for (size_t row = 0; row < 2 * n_; ++row) {
        const bool xc = (xRow(row)[wc] & mc) != 0;
        const bool zc = (zRow(row)[wc] & mc) != 0;
        const bool xt = (xRow(row)[wt] & mt) != 0;
        const bool zt = (zRow(row)[wt] & mt) != 0;
        if (xc && zt && (xt == zc))
            r_[row] ^= 1;
        if (xc)
            xRow(row)[wt] ^= mt;
        if (zt)
            zRow(row)[wc] ^= mc;
    }
}

void
Tableau::cz(size_t a, size_t b)
{
    h(b);
    cx(a, b);
    h(b);
}

void
Tableau::swap(size_t a, size_t b)
{
    cx(a, b);
    cx(b, a);
    cx(a, b);
}

void
Tableau::applyPauli(const PauliString &p)
{
    if (p.nQubits() != n_)
        throw std::invalid_argument("Tableau::applyPauli: size mismatch");
    const auto &px = p.xWords();
    const auto &pz = p.zWords();
    for (size_t row = 0; row < 2 * n_; ++row) {
        size_t anti = 0;
        for (size_t w = 0; w < words_; ++w) {
            anti += static_cast<size_t>(
                std::popcount(xRow(row)[w] & pz[w]));
            anti += static_cast<size_t>(
                std::popcount(zRow(row)[w] & px[w]));
        }
        r_[row] ^= static_cast<uint8_t>(anti & 1);
    }
}

void
Tableau::applyGate(const Gate &g, Rng &rng)
{
    if (g.isParameterized())
        throw std::invalid_argument("Tableau::applyGate: unbound parameter");
    switch (g.type) {
      case GateType::I: return;
      case GateType::X: x(g.q0); return;
      case GateType::Y: y(g.q0); return;
      case GateType::Z: z(g.q0); return;
      case GateType::H: h(g.q0); return;
      case GateType::S: s(g.q0); return;
      case GateType::Sdg: sdg(g.q0); return;
      case GateType::CX: cx(g.q0, g.q1); return;
      case GateType::CZ: cz(g.q0, g.q1); return;
      case GateType::Swap: swap(g.q0, g.q1); return;
      case GateType::Measure: measure(g.q0, rng); return;
      case GateType::Reset:
        if (measure(g.q0, rng) == 1)
            x(g.q0);
        return;
      case GateType::Rz: {
        switch (cliffordQuarterTurns(g)) {
          case 1: s(g.q0); break;
          case 2: z(g.q0); break;
          case 3: sdg(g.q0); break;
          default: break;
        }
        return;
      }
      case GateType::Rx: {
        const int k = cliffordQuarterTurns(g);
        if (k == 0)
            return;
        if (k == 2) {
            x(g.q0);
            return;
        }
        h(g.q0);
        if (k == 1)
            s(g.q0);
        else
            sdg(g.q0);
        h(g.q0);
        return;
      }
      case GateType::Ry: {
        const int k = cliffordQuarterTurns(g);
        if (k == 0)
            return;
        if (k == 2) {
            y(g.q0);
            return;
        }
        // Ry(theta) = S Rx(theta) S^dag (as operators), so the circuit is
        // sdg, rx, s.
        sdg(g.q0);
        h(g.q0);
        if (k == 1)
            s(g.q0);
        else
            sdg(g.q0);
        h(g.q0);
        s(g.q0);
        return;
      }
      case GateType::T:
      case GateType::Tdg:
        throw std::invalid_argument("Tableau::applyGate: T is non-Clifford");
    }
}

void
Tableau::run(const Circuit &circuit, Rng &rng)
{
    if (circuit.nQubits() != n_)
        throw std::invalid_argument("Tableau::run: width mismatch");
    for (const auto &g : circuit.gates())
        applyGate(g, rng);
}

void
Tableau::rowsum(size_t h_row, size_t i_row)
{
    int phase = 2 * r_[h_row] + 2 * r_[i_row];
    for (size_t q = 0; q < n_; ++q) {
        phase += gPhase(xBit(i_row, q), zBit(i_row, q), xBit(h_row, q),
                        zBit(h_row, q));
    }
    phase %= 4;
    if (phase < 0)
        phase += 4;
    r_[h_row] = static_cast<uint8_t>(phase / 2);
    for (size_t w = 0; w < words_; ++w) {
        xRow(h_row)[w] ^= xRow(i_row)[w];
        zRow(h_row)[w] ^= zRow(i_row)[w];
    }
}

void
Tableau::rowsumInto(std::vector<uint64_t> &sx, std::vector<uint64_t> &sz,
                    int &sr, size_t i_row) const
{
    int phase = 2 * sr + 2 * r_[i_row];
    for (size_t q = 0; q < n_; ++q) {
        const int hx = (sx[q / kWordBits] >> (q % kWordBits)) & 1;
        const int hz = (sz[q / kWordBits] >> (q % kWordBits)) & 1;
        phase += gPhase(xBit(i_row, q), zBit(i_row, q), hx, hz);
    }
    phase %= 4;
    if (phase < 0)
        phase += 4;
    sr = phase / 2;
    for (size_t w = 0; w < words_; ++w) {
        sx[w] ^= xRow(i_row)[w];
        sz[w] ^= zRow(i_row)[w];
    }
}

int
Tableau::measure(size_t q, Rng &rng)
{
    const size_t w = q / kWordBits;
    const uint64_t m = uint64_t{1} << (q % kWordBits);

    size_t p = 2 * n_;
    for (size_t row = n_; row < 2 * n_; ++row) {
        if (xRow(row)[w] & m) {
            p = row;
            break;
        }
    }

    if (p < 2 * n_) {
        // Random outcome.
        for (size_t row = 0; row < 2 * n_; ++row)
            if (row != p && (xRow(row)[w] & m))
                rowsum(row, p);
        // Destabilizer p-n takes the old stabilizer; stabilizer p becomes
        // +/- Z_q.
        for (size_t ww = 0; ww < words_; ++ww) {
            xRow(p - n_)[ww] = xRow(p)[ww];
            zRow(p - n_)[ww] = zRow(p)[ww];
        }
        r_[p - n_] = r_[p];
        for (size_t ww = 0; ww < words_; ++ww) {
            xRow(p)[ww] = 0;
            zRow(p)[ww] = 0;
        }
        const int outcome = rng.bernoulli(0.5) ? 1 : 0;
        zRow(p)[w] |= m;
        r_[p] = static_cast<uint8_t>(outcome);
        return outcome;
    }

    // Deterministic outcome.
    std::vector<uint64_t> sx(words_, 0), sz(words_, 0);
    int sr = 0;
    for (size_t i = 0; i < n_; ++i)
        if (xRow(i)[w] & m)
            rowsumInto(sx, sz, sr, n_ + i);
    return sr;
}

bool
Tableau::rowAnticommutesWith(size_t row, const PauliString &p) const
{
    const auto &px = p.xWords();
    const auto &pz = p.zWords();
    size_t anti = 0;
    for (size_t w = 0; w < words_; ++w) {
        anti += static_cast<size_t>(std::popcount(xRow(row)[w] & pz[w]));
        anti += static_cast<size_t>(std::popcount(zRow(row)[w] & px[w]));
    }
    return (anti & 1) != 0;
}

int
Tableau::expectation(const PauliString &p) const
{
    if (p.nQubits() != n_)
        throw std::invalid_argument("Tableau::expectation: size mismatch");
    if (p.isIdentity())
        return p.phaseExponent() == 0 ? 1 : -1;

    for (size_t row = n_; row < 2 * n_; ++row)
        if (rowAnticommutesWith(row, p))
            return 0;

    // P (up to sign) is a product of the stabilizers whose destabilizer
    // partners anticommute with P.
    std::vector<uint64_t> sx(words_, 0), sz(words_, 0);
    int sr = 0;
    for (size_t i = 0; i < n_; ++i)
        if (rowAnticommutesWith(i, p))
            rowsumInto(sx, sz, sr, n_ + i);

    // Bits must now match P exactly.
    const auto &px = p.xWords();
    const auto &pz = p.zWords();
    for (size_t w = 0; w < words_; ++w)
        if (sx[w] != px[w] || sz[w] != pz[w])
            throw std::logic_error("Tableau::expectation: group mismatch");

    // Sign of P relative to its canonical Hermitian form (i^{nY}).
    size_t ny = 0;
    for (size_t w = 0; w < words_; ++w)
        ny += static_cast<size_t>(std::popcount(px[w] & pz[w]));
    const int canonical = static_cast<int>(ny % 4);
    const int p_sign =
        (p.phaseExponent() == canonical) ? 1 : -1;
    const int group_sign = sr ? -1 : 1;
    return p_sign * group_sign;
}

double
Tableau::energy(const Hamiltonian &ham) const
{
    double total = 0.0;
    for (const auto &t : ham.terms())
        total += t.coefficient * static_cast<double>(expectation(t.op));
    return total;
}

PauliString
Tableau::rowToPauli(size_t row) const
{
    PauliString p(n_);
    for (size_t q = 0; q < n_; ++q) {
        const bool xb = xBit(row, q);
        const bool zb = zBit(row, q);
        if (xb && zb)
            p.set(q, Pauli::Y);
        else if (xb)
            p.set(q, Pauli::X);
        else if (zb)
            p.set(q, Pauli::Z);
    }
    if (r_[row])
        p.multiplyByI(2); // fold the -1 sign into the phase exponent
    return p;
}

PauliString
Tableau::stabilizer(size_t i) const
{
    if (i >= n_)
        throw std::out_of_range("Tableau::stabilizer: index");
    return rowToPauli(n_ + i);
}

PauliString
Tableau::destabilizer(size_t i) const
{
    if (i >= n_)
        throw std::out_of_range("Tableau::destabilizer: index");
    return rowToPauli(i);
}

} // namespace eftvqa
