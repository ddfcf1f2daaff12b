/**
 * @file
 * Parameterized property sweeps across modules: invariants that must
 * hold over whole parameter ranges rather than single points.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "ansatz/ansatz.hpp"
#include "compile/fidelity_model.hpp"
#include "compile/rus_expansion.hpp"
#include "layout/scheduler.hpp"
#include "qec/magic/injection.hpp"
#include "sim/density_matrix.hpp"
#include "sim/statevector.hpp"

#include "dm_oracle.hpp"

using namespace eftvqa;

// ---------------------------------------------------------------------
// Injection model invariants over (d, p).
// ---------------------------------------------------------------------

class InjectionSweep
    : public ::testing::TestWithParam<std::tuple<int, double>>
{
};

TEST_P(InjectionSweep, ModelInvariants)
{
    const auto [d, p] = GetParam();
    const InjectionModel injection(d, p);

    // Error rate is exactly 23p/30 regardless of distance.
    EXPECT_NEAR(injection.injectedErrorRate(), 23.0 * p / 30.0, 1e-15);

    const double pass = injection.postSelectionPassProb();
    EXPECT_GE(pass, 0.0);
    EXPECT_LE(pass, 1.0);
    if (pass > 0.0) {
        // Expected trials >= 1 and completion probability is a
        // probability.
        EXPECT_GE(injection.expectedTrials(), 1.0);
        EXPECT_GT(injection.probWithinOneSigma(), 0.0);
        EXPECT_LE(injection.probWithinOneSigma(), 1.0);
        // The shuffling criterion agrees with the alpha root (paper
        // section 9): p <= alpha <=> keeps up.
        EXPECT_EQ(injection.shufflingKeepsUp(),
                  p <= injection.alphaRoot() + 1e-12);
    } else {
        EXPECT_FALSE(injection.shufflingKeepsUp());
    }
    // Roots are ordered and inside (0, 1).
    EXPECT_GT(injection.alphaRoot(), 0.0);
    EXPECT_LT(injection.alphaRoot(), injection.betaRoot());
    EXPECT_LT(injection.betaRoot(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    DistanceAndRate, InjectionSweep,
    ::testing::Combine(::testing::Values(3, 5, 7, 9, 11, 13, 15),
                       ::testing::Values(5e-4, 1e-3, 2e-3, 4e-3)));

// ---------------------------------------------------------------------
// Ansatz gate-count formulas vs constructed circuits over (kind, n).
// ---------------------------------------------------------------------

class AnsatzSweep
    : public ::testing::TestWithParam<std::tuple<AnsatzKind, int>>
{
};

TEST_P(AnsatzSweep, CircuitsAndFormulasConsistent)
{
    const auto [kind, n] = GetParam();
    const int depth = 2;
    const auto circuit = buildAnsatz(kind, n, depth);

    // Parameter indices dense and bounded.
    EXPECT_GT(circuit.nParameters(), 0u);
    const auto bound = circuit.bind(
        std::vector<double>(circuit.nParameters(), 0.1));
    EXPECT_EQ(bound.nParameters(), 0u);

    // Formula CNOT counts match constructed circuits exactly for the
    // families whose construction follows the closed form.
    if (kind == AnsatzKind::LinearHea) {
        EXPECT_DOUBLE_EQ(
            static_cast<double>(circuit.countType(GateType::CX)),
            static_cast<double>((n - 1) * depth));
    }
    if (kind == AnsatzKind::Fche) {
        EXPECT_DOUBLE_EQ(
            static_cast<double>(circuit.countType(GateType::CX)),
            ansatzCnotCount(kind, n, depth));
    }

    // Rotation counts: 2 n p for the HEA families.
    if (kind != AnsatzKind::UccsdLite) {
        EXPECT_EQ(circuit.countType(GateType::Rz) +
                      circuit.countType(GateType::Rx),
                  static_cast<size_t>(2 * n * depth));
    }
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndSizes, AnsatzSweep,
    ::testing::Combine(::testing::Values(AnsatzKind::LinearHea,
                                         AnsatzKind::Fche,
                                         AnsatzKind::BlockedAllToAll,
                                         AnsatzKind::UccsdLite),
                       ::testing::Values(8, 12, 20, 32)));

// ---------------------------------------------------------------------
// Scheduler monotonicity across sizes and layouts.
// ---------------------------------------------------------------------

class SchedulerSweep : public ::testing::TestWithParam<LayoutKind>
{
};

TEST_P(SchedulerSweep, CyclesGrowWithSize)
{
    const auto layout = LayoutModel::make(GetParam());
    for (AnsatzKind ansatz : {AnsatzKind::LinearHea, AnsatzKind::Fche,
                              AnsatzKind::BlockedAllToAll}) {
        double prev = 0.0;
        for (int n = 8; n <= 96; n += 8) {
            const double cycles = ansatzLayerCycles(ansatz, n, layout);
            EXPECT_GT(cycles, prev)
                << layout.name << " " << ansatzKindName(ansatz)
                << " n=" << n;
            prev = cycles;
        }
    }
}

TEST_P(SchedulerSweep, PackingEfficiencyInUnitInterval)
{
    const auto layout = LayoutModel::make(GetParam());
    for (int n = 8; n <= 164; n += 12) {
        const double pe = layout.packingEfficiency(n);
        EXPECT_GT(pe, 0.0);
        EXPECT_LT(pe, 1.0);
    }
}

INSTANTIATE_TEST_SUITE_P(AllLayouts, SchedulerSweep,
                         ::testing::Values(LayoutKind::ProposedEft,
                                           LayoutKind::Compact,
                                           LayoutKind::Intermediate,
                                           LayoutKind::Fast,
                                           LayoutKind::Grid));

// ---------------------------------------------------------------------
// Density matrix == statevector on random unitary circuits.
// ---------------------------------------------------------------------

class DmVsStatevector : public ::testing::TestWithParam<int>
{
};

TEST_P(DmVsStatevector, RandomCircuitAgreement)
{
    Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 3);
    const size_t n = 4;
    Circuit c(n);
    for (int g = 0; g < 25; ++g) {
        const uint64_t pick = rng.uniformInt(7);
        const auto q = static_cast<uint32_t>(rng.uniformInt(n));
        auto q2 = static_cast<uint32_t>(rng.uniformInt(n));
        while (q2 == q)
            q2 = static_cast<uint32_t>(rng.uniformInt(n));
        switch (pick) {
          case 0: c.h(q); break;
          case 1: c.rz(q, rng.uniform(-M_PI, M_PI)); break;
          case 2: c.rx(q, rng.uniform(-M_PI, M_PI)); break;
          case 3: c.ry(q, rng.uniform(-M_PI, M_PI)); break;
          case 4: c.cx(q, q2); break;
          case 5: c.cz(q, q2); break;
          case 6: c.swap(q, q2); break;
        }
    }
    Statevector psi(n);
    psi.run(c);
    const DensityMatrix rho = dm_oracle::noiseless(c);

    EXPECT_NEAR(rho.purity(), 1.0, 1e-10);
    EXPECT_NEAR(rho.fidelityWithPure(psi), 1.0, 1e-10);
    Rng pauli_rng(static_cast<uint64_t>(GetParam()));
    for (int trial = 0; trial < 6; ++trial) {
        PauliString p(n);
        for (size_t q = 0; q < n; ++q)
            p.set(q, static_cast<Pauli>(pauli_rng.uniformInt(4)));
        EXPECT_NEAR(rho.expectation(p), psi.expectation(p), 1e-9)
            << p.toString();
    }
}

INSTANTIATE_TEST_SUITE_P(RandomCircuits, DmVsStatevector,
                         ::testing::Range(0, 15));

// ---------------------------------------------------------------------
// RUS expansion preserves the state for any failure pattern.
// ---------------------------------------------------------------------

class RusSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(RusSweep, MultiQubitNetRotationPreserved)
{
    Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 11);
    const size_t n = 3;
    Circuit c(n);
    c.h(0);
    c.cx(0, 1);
    c.rz(0, rng.uniform(-1.0, 1.0));
    c.rx(1, rng.uniform(-1.0, 1.0));
    c.ry(2, rng.uniform(-1.0, 1.0));
    c.cx(1, 2);
    c.rz(2, rng.uniform(-1.0, 1.0));

    const auto expansion = expandRepeatUntilSuccess(c, rng);
    EXPECT_EQ(expansion.logical_rotations, 4u);
    Statevector expected(n), actual(n);
    expected.run(c);
    actual.run(expansion.runtime_circuit);
    EXPECT_NEAR(actual.overlapSquared(expected), 1.0, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(RandomPatterns, RusSweep,
                         ::testing::Range(0, 15));

// ---------------------------------------------------------------------
// Fidelity model monotonicity.
// ---------------------------------------------------------------------

TEST(FidelitySweep, PqecFidelityDecreasesWithDepth)
{
    FidelityModel model(DeviceConfig{});
    double prev = 1.0;
    for (int depth = 1; depth <= 32; depth *= 2) {
        const double f =
            model.pqec(AnsatzKind::Fche, 16, depth).fidelity();
        EXPECT_LT(f, prev);
        prev = f;
    }
}

TEST(FidelitySweep, NisqFidelityDecreasesWithQubits)
{
    FidelityModel model(DeviceConfig{});
    double prev = 1.0;
    for (int n = 8; n <= 40; n += 8) {
        const double f = model.nisq(AnsatzKind::Fche, n, 1).fidelity();
        EXPECT_LT(f, prev);
        prev = f;
    }
}

TEST(FidelitySweep, ConventionalWorsensBeyondSweetSpotBothWays)
{
    // Fixing n, the factory sweep has an interior optimum: smaller
    // factories lose to T errors, larger to stalls (paper section 3.2).
    FidelityModel model(DeviceConfig{});
    const auto configs = standardFactoryConfigs();
    std::vector<double> f;
    for (const auto &factory : configs)
        f.push_back(
            model.conventional(AnsatzKind::Fche, 16, 1, factory)
                .fidelity());
    // The best config is neither the smallest nor the largest.
    size_t best = 0;
    for (size_t i = 1; i < f.size(); ++i)
        if (f[i] > f[best])
            best = i;
    EXPECT_GT(best, 0u);
    EXPECT_LT(best, f.size() - 1);
}
