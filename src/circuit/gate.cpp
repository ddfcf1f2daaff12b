#include "circuit/gate.hpp"

#include <cmath>

namespace eftvqa {

bool
isCliffordType(GateType t)
{
    switch (t) {
      case GateType::I:
      case GateType::X:
      case GateType::Y:
      case GateType::Z:
      case GateType::H:
      case GateType::S:
      case GateType::Sdg:
      case GateType::CX:
      case GateType::CZ:
      case GateType::Swap:
        return true;
      default:
        return false;
    }
}

bool
isRotationType(GateType t)
{
    return t == GateType::Rz || t == GateType::Rx || t == GateType::Ry;
}

bool
isTwoQubitType(GateType t)
{
    return t == GateType::CX || t == GateType::CZ || t == GateType::Swap;
}

bool
isDiagonalType(GateType t)
{
    switch (t) {
      case GateType::I:
      case GateType::Z:
      case GateType::S:
      case GateType::Sdg:
      case GateType::T:
      case GateType::Tdg:
      case GateType::Rz:
      case GateType::CZ:
        return true;
      default:
        return false;
    }
}

std::string
gateName(GateType t)
{
    switch (t) {
      case GateType::I: return "i";
      case GateType::X: return "x";
      case GateType::Y: return "y";
      case GateType::Z: return "z";
      case GateType::H: return "h";
      case GateType::S: return "s";
      case GateType::Sdg: return "sdg";
      case GateType::T: return "t";
      case GateType::Tdg: return "tdg";
      case GateType::CX: return "cx";
      case GateType::CZ: return "cz";
      case GateType::Swap: return "swap";
      case GateType::Rz: return "rz";
      case GateType::Rx: return "rx";
      case GateType::Ry: return "ry";
      case GateType::Measure: return "measure";
      case GateType::Reset: return "reset";
    }
    return "?";
}

bool
Gate::isClifford(double tol) const
{
    if (isCliffordType(type))
        return true;
    if (type == GateType::Measure || type == GateType::Reset)
        return true; // stabilizer operations
    if (isRotationType(type)) {
        if (isParameterized())
            return false;
        const double half_pi = M_PI / 2.0;
        const double ratio = angle / half_pi;
        return std::abs(ratio - std::round(ratio)) < tol;
    }
    return false; // T / Tdg
}

std::string
Gate::toString() const
{
    // Appends only: GCC 12 flags `"(" + std::to_string(...)` with a
    // false -Wrestrict.
    std::string s = gateName(type);
    if (isRotationType(type)) {
        s += isParameterized() ? "(p" : "(";
        s += isParameterized() ? std::to_string(param)
                               : std::to_string(angle);
        s += ')';
    }
    s += ' ';
    s += std::to_string(q0);
    if (isTwoQubit()) {
        s += ' ';
        s += std::to_string(q1);
    }
    return s;
}

} // namespace eftvqa
