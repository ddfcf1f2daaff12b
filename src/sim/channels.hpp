/**
 * @file
 * 2x2 matrices, gate unitaries and noise-channel constructors.
 *
 * These are the noise-channel building blocks of the paper's evaluation
 * (section 5.2.1): depolarizing + thermal relaxation for NISQ gates,
 * bit-flip + relaxation for NISQ measurement, depolarizing for pQEC
 * logical operations, and Pauli-twirled relaxation for the Clifford path.
 */

#ifndef EFTVQA_SIM_CHANNELS_HPP
#define EFTVQA_SIM_CHANNELS_HPP

#include <array>
#include <complex>
#include <cstdint>

#include "circuit/gate.hpp"

namespace eftvqa {

/** Row-major 2x2 complex matrix. */
using Mat2 = std::array<std::complex<double>, 4>;

/** Row-major 4x4 complex matrix (two-qubit unitaries). */
using Mat4 = std::array<std::complex<double>, 16>;

/** Unitary of a one-qubit gate (rotations use the bound angle). */
Mat2 gateMatrix1q(GateType type, double angle = 0.0);

/** Matrix product a*b. */
Mat2 matmul(const Mat2 &a, const Mat2 &b);

/** Probabilities of a single-qubit Pauli channel. */
struct PauliChannel
{
    double px = 0.0;
    double py = 0.0;
    double pz = 0.0;

    double pIdentity() const { return 1.0 - px - py - pz; }
};

/**
 * Pauli-twirled thermal relaxation: the Pauli channel with the same
 * Pauli-transfer-matrix diagonal (Ghosh, Fowler & Geller 2012; used by
 * the paper's Clifford-state simulations, section 5.2.2).
 */
PauliChannel pauliTwirledRelaxation(double t1, double t2, double t);

/** Pauli channel of a symmetric depolarizing error (p/3 each). */
PauliChannel depolarizingPauliChannel(double p);

// ------------------------------------------------------------------ //
// Superoperator form. A one-qubit map acts on the density-matrix     //
// elements rho[ket, bra] of its qubit as a 4x4 matrix on the basis   //
// index (ket << 1) | bra, so composing maps is a 4x4 product (later  //
// map on the left). Channels without a gate are real and block-      //
// sparse: they mix only {00, 11} (populations) and {01, 10}          //
// (coherences).                                                      //
// ------------------------------------------------------------------ //

/** U (x) U*: rho -> U rho U^dag. */
Mat4 unitarySuperop(const Mat2 &u);

/** Pauli channel: (pI +- pz, px +- py) on the two blocks. */
Mat4 pauliChannelSuperop(const PauliChannel &channel);

/** Amplitude damping with decay probability gamma in [0, 1]. */
Mat4 amplitudeDampingSuperop(double gamma);

/** Phase damping with parameter lambda in [0, 1] (1 = full dephase). */
Mat4 phaseDampingSuperop(double lambda);

/**
 * Thermal relaxation for duration @p t with times T1 and T2: amplitude
 * damping with gamma = 1 - exp(-t/T1), then the phase damping that
 * makes off-diagonals decay as exp(-t/T2). Throws std::invalid_argument
 * unless T1, T2 > 0, t >= 0 and T2 <= 2 T1.
 */
Mat4 thermalRelaxationSuperop(double t1, double t2, double t);

/**
 * A qubit's folded one-qubit maps (DmPassBuilder), as a DmPass carries
 * them to the density-matrix kernels.
 */
struct DmMap
{
    enum class Kind : uint8_t
    {
        None,    ///< nothing folded
        Superop, ///< complex 4x4 superoperator carrying a gate
        Channel, ///< gate-free channel: real, block-sparse superoperator
    };

    Kind kind = Kind::None;
    Mat4 superop{}; ///< (ket << 1) | bra
};

/**
 * A gate-free channel's 8 block entries {aa, ad, da, dd, bb, bc, cb,
 * cc}: populations (A = rho[0,0], D = rho[1,1] of the qubit) and
 * coherences (B = rho[0,1], C = rho[1,0]) mix only within their own
 * block.
 */
inline void
channelEntries(const Mat4 &superop, double (&k)[8])
{
    constexpr int at[8] = {0, 3, 12, 15, 5, 6, 9, 10};
    for (int i = 0; i < 8; ++i)
        k[i] = superop[at[i]].real();
}

} // namespace eftvqa

#endif // EFTVQA_SIM_CHANNELS_HPP
