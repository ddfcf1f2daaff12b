#include "sim/channels.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace eftvqa {

namespace {

const std::complex<double> kI(0.0, 1.0);

} // namespace

Mat2
gateMatrix1q(GateType type, double angle)
{
    const double c = std::cos(angle / 2.0);
    const double s = std::sin(angle / 2.0);
    const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
    switch (type) {
      case GateType::I:
        return {1, 0, 0, 1};
      case GateType::X:
        return {0, 1, 1, 0};
      case GateType::Y:
        return {0, -kI, kI, 0};
      case GateType::Z:
        return {1, 0, 0, -1};
      case GateType::H:
        return {inv_sqrt2, inv_sqrt2, inv_sqrt2, -inv_sqrt2};
      case GateType::S:
        return {1, 0, 0, kI};
      case GateType::Sdg:
        return {1, 0, 0, -kI};
      case GateType::T:
        return {1, 0, 0, std::exp(kI * (M_PI / 4.0))};
      case GateType::Tdg:
        return {1, 0, 0, std::exp(-kI * (M_PI / 4.0))};
      case GateType::Rz:
        return {std::exp(-kI * (angle / 2.0)), 0, 0,
                std::exp(kI * (angle / 2.0))};
      case GateType::Rx:
        return {c, -kI * s, -kI * s, c};
      case GateType::Ry:
        return {c, -s, s, c};
      default:
        throw std::invalid_argument("gateMatrix1q: not a one-qubit unitary");
    }
}

Mat2
matmul(const Mat2 &a, const Mat2 &b)
{
    return {a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
            a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3]};
}

PauliChannel
pauliTwirledRelaxation(double t1, double t2, double t)
{
    if (t1 <= 0.0 || t2 <= 0.0 || t < 0.0)
        throw std::invalid_argument("pauliTwirledRelaxation: bad times");
    const double rxy = std::exp(-t / t2);
    const double rz = std::exp(-t / t1);
    PauliChannel ch;
    ch.px = (1.0 - rz) / 4.0;
    ch.py = (1.0 - rz) / 4.0;
    ch.pz = (1.0 - 2.0 * rxy + rz) / 4.0;
    ch.pz = std::max(0.0, ch.pz);
    return ch;
}

PauliChannel
depolarizingPauliChannel(double p)
{
    PauliChannel ch;
    ch.px = ch.py = ch.pz = p / 3.0;
    return ch;
}

Mat4
unitarySuperop(const Mat2 &u)
{
    // Row/column index (ket << 1) | bra: U acts on the ket bit, U* on
    // the bra bit.
    Mat4 out{};
    for (int r = 0; r < 4; ++r)
        for (int c = 0; c < 4; ++c)
            out[r * 4 + c] = u[(r >> 1) * 2 + (c >> 1)] *
                             std::conj(u[(r & 1) * 2 + (c & 1)]);
    return out;
}

namespace {

/** Real block-sparse superoperator: (aa ad; da dd) on the populations
 *  {00, 11}, (bb bc; cb cc) on the coherences {01, 10}. */
Mat4
blockSuperop(double aa, double ad, double da, double dd, double bb,
             double bc, double cb, double cc)
{
    Mat4 out{};
    out[0] = aa;
    out[3] = ad;
    out[12] = da;
    out[15] = dd;
    out[5] = bb;
    out[6] = bc;
    out[9] = cb;
    out[10] = cc;
    return out;
}

void
checkUnitInterval(double v, const char *what)
{
    if (!(v >= 0.0 && v <= 1.0))
        throw std::invalid_argument(std::string(what) +
                                    ": must be in [0, 1]");
}

} // namespace

Mat4
pauliChannelSuperop(const PauliChannel &channel)
{
    const double pi_ = channel.pIdentity();
    const double pop = pi_ + channel.pz;
    const double flip = channel.px + channel.py;
    const double coh = pi_ - channel.pz;
    const double swap = channel.px - channel.py;
    return blockSuperop(pop, flip, flip, pop, coh, swap, swap, coh);
}

Mat4
amplitudeDampingSuperop(double gamma)
{
    checkUnitInterval(gamma, "amplitudeDamping");
    const double keep = std::sqrt(1.0 - gamma);
    return blockSuperop(1.0, gamma, 0.0, 1.0 - gamma, keep, 0.0, 0.0, keep);
}

Mat4
phaseDampingSuperop(double lambda)
{
    checkUnitInterval(lambda, "phaseDamping");
    const double keep = std::sqrt(1.0 - lambda);
    return blockSuperop(1.0, 0.0, 0.0, 1.0, keep, 0.0, 0.0, keep);
}

Mat4
thermalRelaxationSuperop(double t1, double t2, double t)
{
    if (t1 <= 0.0 || t2 <= 0.0 || t < 0.0)
        throw std::invalid_argument("thermalRelaxation: bad times");
    if (t2 > 2.0 * t1 + 1e-12)
        throw std::invalid_argument("thermalRelaxation: requires T2 <= 2 T1");

    const double gamma = 1.0 - std::exp(-t / t1);
    // Phase damping lambda with sqrt(1-gamma) * sqrt(1-lambda) =
    // exp(-t/T2), so the off-diagonal decays exactly as T2 says.
    const double target = std::exp(-t / t2);
    const double sq1mg = std::sqrt(1.0 - gamma);
    double lambda = 0.0;
    if (sq1mg > 0.0) {
        const double ratio = target / sq1mg;
        lambda = std::max(0.0, 1.0 - ratio * ratio);
    }
    const double keep = sq1mg * std::sqrt(1.0 - lambda);
    return blockSuperop(1.0, gamma, 0.0, 1.0 - gamma, keep, 0.0, 0.0, keep);
}

} // namespace eftvqa
