/**
 * @file
 * Tests for the density-matrix simulator and its noise channels, each
 * run as the DmPass stream the backend executes: gates through the
 * noiseless stream, channels as Channel passes (DmPassBuilder::channel
 * + runPasses), Measure/Reset and the two-qubit depolarizing channel
 * as the builder folds them, with SIMD dispatch on auto and pinned off.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "sim/density_matrix.hpp"

#include "dm_oracle.hpp"

using namespace eftvqa;
using dm_oracle::inBothSimdModes;
using dm_oracle::noiseless;

namespace {

/** One-gate preparation circuit on @p n qubits. */
Circuit
oneGate(size_t n, const Gate &g)
{
    Circuit c(n);
    c.add(g);
    return c;
}

} // namespace

TEST(DensityMatrix, StartsPureZero)
{
    DensityMatrix rho(2);
    EXPECT_NEAR(rho.trace(), 1.0, 1e-12);
    EXPECT_NEAR(rho.purity(), 1.0, 1e-12);
    EXPECT_NEAR(rho.expectation(PauliString::fromLabel("ZI")), 1.0, 1e-12);
}

TEST(DensityMatrix, MatchesStatevectorOnUnitaries)
{
    inBothSimdModes([] {
        Circuit c(3);
        c.h(0);
        c.cx(0, 1);
        c.rz(1, 0.4);
        c.ry(2, 0.9);
        c.cz(1, 2);
        c.swap(0, 2);

        Statevector psi(3);
        psi.run(c);
        const DensityMatrix rho = noiseless(c);

        for (const char *label : {"XII", "IYI", "IIZ", "XYZ", "ZZI"}) {
            const auto p = PauliString::fromLabel(label);
            EXPECT_NEAR(rho.expectation(p), psi.expectation(p), 1e-10)
                << label;
        }
        EXPECT_NEAR(rho.fidelityWithPure(psi), 1.0, 1e-10);
    });
}

TEST(DensityMatrix, SetPureStateReproducesExpectations)
{
    Statevector psi(2);
    psi.applyGate(Gate(GateType::H, 0));
    psi.applyGate(Gate(GateType::CX, 0, 1));
    DensityMatrix rho(2);
    rho.setPureState(psi);
    EXPECT_NEAR(rho.expectation(PauliString::fromLabel("XX")), 1.0, 1e-12);
    EXPECT_NEAR(rho.purity(), 1.0, 1e-12);
}

TEST(DensityMatrix, FullDepolarizingGivesMaximallyMixedQubit)
{
    inBothSimdModes([] {
        DensityMatrix rho = noiseless(oneGate(1, Gate(GateType::H, 0)));
        // p = 3/4 fully depolarizes a single qubit.
        dm_oracle::channel(rho, 0,
                           pauliChannelSuperop(depolarizingPauliChannel(0.75)));
        EXPECT_NEAR(rho.expectation(PauliString::fromLabel("X")), 0.0, 1e-12);
        EXPECT_NEAR(rho.expectation(PauliString::fromLabel("Z")), 0.0, 1e-12);
        EXPECT_NEAR(rho.purity(), 0.5, 1e-12);
    });
}

TEST(DensityMatrix, PauliChannelDampsBlochVector)
{
    inBothSimdModes([] {
        // H|0>, so <X> = 1.
        DensityMatrix rho = noiseless(oneGate(1, Gate(GateType::H, 0)));
        PauliChannel ch;
        ch.pz = 0.1; // phase flips shrink <X> by (1 - 2 pz)
        dm_oracle::channel(rho, 0, pauliChannelSuperop(ch));
        EXPECT_NEAR(rho.expectation(PauliString::fromLabel("X")), 0.8, 1e-12);
    });
}

TEST(DensityMatrix, KrausPathMatchesFastPath)
{
    inBothSimdModes([] {
        // The oracle's Kraus sum of depolarizing == the Channel pass.
        Circuit prep(2);
        prep.h(0);
        prep.cx(0, 1);
        prep.rz(1, 0.3);
        DensityMatrix a = noiseless(prep);
        DensityMatrix b = noiseless(prep);

        dm_oracle::kraus1q(a, dm_oracle::depolarizingChannel(0.2), 1);
        dm_oracle::channel(b, 1,
                           pauliChannelSuperop(depolarizingPauliChannel(0.2)));
        for (const char *label : {"XX", "ZZ", "IZ", "YX"}) {
            const auto p = PauliString::fromLabel(label);
            EXPECT_NEAR(a.expectation(p), b.expectation(p), 1e-10) << label;
        }
    });
}

TEST(DensityMatrix, AmplitudeDampingDrivesToGround)
{
    inBothSimdModes([] {
        // X|0> = |1>.
        DensityMatrix rho = noiseless(oneGate(1, Gate(GateType::X, 0)));
        dm_oracle::channel(rho, 0, amplitudeDampingSuperop(1.0));
        EXPECT_NEAR(rho.expectation(PauliString::fromLabel("Z")), 1.0, 1e-12);
        EXPECT_NEAR(rho.trace(), 1.0, 1e-12);
    });
}

TEST(DensityMatrix, AmplitudeDampingPartial)
{
    inBothSimdModes([] {
        DensityMatrix rho = noiseless(oneGate(1, Gate(GateType::X, 0)));
        dm_oracle::channel(rho, 0, amplitudeDampingSuperop(0.3));
        // <Z> = p0 - p1 = 0.3 - 0.7 = -0.4.
        EXPECT_NEAR(rho.expectation(PauliString::fromLabel("Z")), -0.4, 1e-12);
    });
}

TEST(DensityMatrix, PhaseDampingKillsCoherence)
{
    inBothSimdModes([] {
        DensityMatrix rho = noiseless(oneGate(1, Gate(GateType::H, 0)));
        dm_oracle::channel(rho, 0, phaseDampingSuperop(1.0));
        EXPECT_NEAR(rho.expectation(PauliString::fromLabel("X")), 0.0, 1e-12);
        EXPECT_NEAR(rho.expectation(PauliString::fromLabel("Z")), 0.0, 1e-12);
        EXPECT_NEAR(rho.trace(), 1.0, 1e-12);
    });
}

TEST(DensityMatrix, ThermalRelaxationMatchesKrausChannel)
{
    inBothSimdModes([] {
        const double t1 = 100e3, t2 = 80e3, t = 500.0;
        DensityMatrix a = noiseless(oneGate(1, Gate(GateType::H, 0)));
        DensityMatrix b = a;
        dm_oracle::channel(a, 0, thermalRelaxationSuperop(t1, t2, t));
        dm_oracle::kraus1q(
            b, dm_oracle::thermalRelaxationChannel(t1, t2, t), 0);
        for (const char *label : {"X", "Y", "Z"}) {
            const auto p = PauliString::fromLabel(label);
            EXPECT_NEAR(a.expectation(p), b.expectation(p), 1e-10) << label;
        }
    });
}

TEST(DensityMatrix, Depolarizing2qFullMixesPair)
{
    inBothSimdModes([] {
        // H, then CX fused with full depolarization (p = 15/16) in one pair
        // pass.
        DensityMatrix rho(2);
        DmPassBuilder stream(2);
        stream.gate1q(Gate(GateType::H, 0));
        stream.gate2q(Gate(GateType::CX, 0, 1), 15.0 / 16.0);
        rho.runPasses(stream.finish());
        EXPECT_NEAR(rho.expectation(PauliString::fromLabel("XX")), 0.0, 1e-10);
        EXPECT_NEAR(rho.expectation(PauliString::fromLabel("ZZ")), 0.0, 1e-10);
        EXPECT_NEAR(rho.trace(), 1.0, 1e-10);
        EXPECT_NEAR(rho.purity(), 0.25, 1e-10);
    });
}

TEST(DensityMatrix, Depolarizing2qSmallErrorDampsCorrelations)
{
    inBothSimdModes([] {
        DensityMatrix rho(2);
        DmPassBuilder stream(2);
        stream.gate1q(Gate(GateType::H, 0));
        stream.gate2q(Gate(GateType::CX, 0, 1), 0.1);
        rho.runPasses(stream.finish());
        // Non-identity two-qubit Paulis shrink by (1 - 16p/15).
        EXPECT_NEAR(rho.expectation(PauliString::fromLabel("XX")),
                    1.0 - 16.0 * 0.1 / 15.0, 1e-10);
    });
}

TEST(DensityMatrix, MeasurementDephaseKeepsDiagonal)
{
    inBothSimdModes([] {
        DensityMatrix rho =
            noiseless(oneGate(1, Gate::rotation(GateType::Ry, 0, 0.7)));
        const double z_before =
            rho.expectation(PauliString::fromLabel("Z"));
        DmPassBuilder stream(1);
        stream.gate1q(Gate(GateType::Measure, 0));
        rho.runPasses(stream.finish());
        EXPECT_NEAR(rho.expectation(PauliString::fromLabel("Z")), z_before,
                    1e-12);
        EXPECT_NEAR(rho.expectation(PauliString::fromLabel("X")), 0.0, 1e-12);
    });
}

TEST(DensityMatrix, ResetChannel)
{
    inBothSimdModes([] {
        Circuit prep(2);
        prep.x(0);
        prep.h(1);
        DensityMatrix rho = noiseless(prep);
        DmPassBuilder stream(2);
        stream.gate1q(Gate(GateType::Reset, 0));
        rho.runPasses(stream.finish());
        EXPECT_NEAR(rho.expectation(PauliString::fromLabel("ZI")), 1.0, 1e-12);
        // Other qubit untouched.
        EXPECT_NEAR(rho.expectation(PauliString::fromLabel("IX")), 1.0, 1e-12);
    });
}

TEST(DensityMatrix, ProbabilityOfOne)
{
    inBothSimdModes([] {
        const DensityMatrix rho =
            noiseless(oneGate(1, Gate::rotation(GateType::Ry, 0, M_PI / 3)));
        EXPECT_NEAR(rho.probabilityOfOne(0),
                    std::sin(M_PI / 6) * std::sin(M_PI / 6), 1e-12);
    });
}
