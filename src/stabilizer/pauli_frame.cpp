#include "stabilizer/pauli_frame.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "stabilizer/tableau.hpp"

namespace eftvqa {

PauliFrame::PauliFrame(size_t n_qubits)
    : n_(n_qubits), x_((n_qubits + 63) / 64, 0), z_((n_qubits + 63) / 64, 0)
{
    if (n_ == 0)
        throw std::invalid_argument("PauliFrame: need at least one qubit");
}

void
PauliFrame::setZeroState()
{
    std::fill(x_.begin(), x_.end(), 0);
    std::fill(z_.begin(), z_.end(), 0);
}

void
PauliFrame::h(size_t q)
{
    if (xBit(q) != zBit(q)) {
        x_[q / 64] ^= bit(q);
        z_[q / 64] ^= bit(q);
    }
}

void
PauliFrame::s(size_t q)
{
    if (xBit(q))
        z_[q / 64] ^= bit(q);
}

void
PauliFrame::cx(size_t control, size_t target)
{
    // X_c -> X_c X_t and Z_t -> Z_c Z_t.
    if (xBit(control))
        x_[target / 64] ^= bit(target);
    if (zBit(target))
        z_[control / 64] ^= bit(control);
}

void
PauliFrame::cz(size_t a, size_t b)
{
    // X_a -> X_a Z_b and X_b -> Z_a X_b.
    const bool xa = xBit(a);
    if (xBit(b))
        z_[a / 64] ^= bit(a);
    if (xa)
        z_[b / 64] ^= bit(b);
}

void
PauliFrame::swap(size_t a, size_t b)
{
    if (xBit(a) != xBit(b)) {
        x_[a / 64] ^= bit(a);
        x_[b / 64] ^= bit(b);
    }
    if (zBit(a) != zBit(b)) {
        z_[a / 64] ^= bit(a);
        z_[b / 64] ^= bit(b);
    }
}

void
PauliFrame::applyGate(const Gate &g, Rng &)
{
    if (g.isParameterized())
        throw std::invalid_argument("PauliFrame::applyGate: unbound parameter");

    switch (g.type) {
      // Paulis only flip signs, which a frame does not carry.
      case GateType::I:
      case GateType::X:
      case GateType::Y:
      case GateType::Z: return;
      case GateType::H: h(g.q0); return;
      case GateType::S:
      case GateType::Sdg: s(g.q0); return;
      case GateType::CX: cx(g.q0, g.q1); return;
      case GateType::CZ: cz(g.q0, g.q1); return;
      case GateType::Swap: swap(g.q0, g.q1); return;
      // Even quarter turns are Paulis. Odd ones act as S (Rz), as
      // H S H (Rx) and as H (Ry), each up to sign.
      case GateType::Rz:
        if (cliffordQuarterTurns(g) % 2 != 0)
            s(g.q0);
        return;
      case GateType::Rx:
        if (cliffordQuarterTurns(g) % 2 != 0) {
            h(g.q0);
            s(g.q0);
            h(g.q0);
        }
        return;
      case GateType::Ry:
        if (cliffordQuarterTurns(g) % 2 != 0)
            h(g.q0);
        return;
      case GateType::Measure:
      case GateType::Reset:
        throw std::invalid_argument(
            "PauliFrame::applyGate: Measure and Reset need a Tableau");
      case GateType::T:
      case GateType::Tdg:
        throw std::invalid_argument("PauliFrame::applyGate: T is non-Clifford");
    }
}

bool
PauliFrame::anticommutes(const PauliString &p) const
{
    if (p.nQubits() != n_)
        throw std::invalid_argument("PauliFrame::anticommutes: size mismatch");
    const auto &px = p.xWords();
    const auto &pz = p.zWords();
    int parity = 0;
    for (size_t w = 0; w < x_.size(); ++w)
        parity ^= std::popcount((x_[w] & pz[w]) ^ (z_[w] & px[w]));
    return (parity & 1) != 0;
}

} // namespace eftvqa
