/**
 * @file
 * Tests for gate matrices, the Pauli channels and the Kraus channel
 * references of the density-matrix oracle (dm_oracle.hpp).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "sim/channels.hpp"

#include "dm_oracle.hpp"

using namespace eftvqa;
using namespace eftvqa::dm_oracle;

namespace {

bool
isUnitary(const Mat2 &u, double tol = 1e-12)
{
    const Mat2 prod = matmul(dagger(u), u);
    return std::abs(prod[0] - 1.0) < tol && std::abs(prod[1]) < tol &&
           std::abs(prod[2]) < tol && std::abs(prod[3] - 1.0) < tol;
}

} // namespace

TEST(Channels, GateMatricesAreUnitary)
{
    for (GateType t : {GateType::I, GateType::X, GateType::Y, GateType::Z,
                       GateType::H, GateType::S, GateType::Sdg,
                       GateType::T, GateType::Tdg}) {
        EXPECT_TRUE(isUnitary(gateMatrix1q(t))) << gateName(t);
    }
    EXPECT_TRUE(isUnitary(gateMatrix1q(GateType::Rz, 0.37)));
    EXPECT_TRUE(isUnitary(gateMatrix1q(GateType::Rx, 1.2)));
    EXPECT_TRUE(isUnitary(gateMatrix1q(GateType::Ry, -2.5)));
}

TEST(Channels, SSquaredIsZ)
{
    const Mat2 s2 = matmul(gateMatrix1q(GateType::S),
                           gateMatrix1q(GateType::S));
    const Mat2 z = gateMatrix1q(GateType::Z);
    for (int i = 0; i < 4; ++i)
        EXPECT_NEAR(std::abs(s2[i] - z[i]), 0.0, 1e-12);
}

TEST(Channels, TSquaredIsS)
{
    const Mat2 t2 = matmul(gateMatrix1q(GateType::T),
                           gateMatrix1q(GateType::T));
    const Mat2 s = gateMatrix1q(GateType::S);
    for (int i = 0; i < 4; ++i)
        EXPECT_NEAR(std::abs(t2[i] - s[i]), 0.0, 1e-12);
}

TEST(Channels, DepolarizingIsTracePreserving)
{
    EXPECT_TRUE(depolarizingChannel(0.0).isTracePreserving());
    EXPECT_TRUE(depolarizingChannel(0.1).isTracePreserving());
    EXPECT_TRUE(depolarizingChannel(1.0).isTracePreserving());
    EXPECT_THROW(depolarizingChannel(-0.1), std::invalid_argument);
}

TEST(Channels, BitAndPhaseFlipTracePreserving)
{
    EXPECT_TRUE(bitFlipChannel(0.3).isTracePreserving());
    EXPECT_TRUE(phaseFlipChannel(0.3).isTracePreserving());
}

TEST(Channels, ThermalRelaxationTracePreserving)
{
    EXPECT_TRUE(
        thermalRelaxationChannel(100e3, 80e3, 300).isTracePreserving());
    EXPECT_TRUE(
        thermalRelaxationChannel(100e3, 200e3, 300).isTracePreserving());
    EXPECT_THROW(thermalRelaxationChannel(100e3, 300e3, 300),
                 std::invalid_argument); // T2 > 2 T1
}

TEST(Channels, PauliTwirledRelaxationProbabilities)
{
    const auto ch = pauliTwirledRelaxation(100e3, 100e3, 300);
    EXPECT_GT(ch.px, 0.0);
    EXPECT_DOUBLE_EQ(ch.px, ch.py);
    EXPECT_GE(ch.pz, 0.0);
    EXPECT_GT(ch.pIdentity(), 0.99);
    // px = (1 - exp(-t/T1)) / 4.
    EXPECT_NEAR(ch.px, (1.0 - std::exp(-300.0 / 100e3)) / 4.0, 1e-12);
}

TEST(Channels, TwirledProbsVanishAtZeroTime)
{
    const auto ch = pauliTwirledRelaxation(100e3, 100e3, 0.0);
    EXPECT_NEAR(ch.px + ch.py + ch.pz, 0.0, 1e-12);
}

TEST(Channels, DepolarizingPauliChannelSplitsEvenly)
{
    const auto ch = depolarizingPauliChannel(0.03);
    EXPECT_DOUBLE_EQ(ch.px, 0.01);
    EXPECT_DOUBLE_EQ(ch.py, 0.01);
    EXPECT_DOUBLE_EQ(ch.pz, 0.01);
}
