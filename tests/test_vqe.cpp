/**
 * @file
 * Tests for the VQE driver and the relative-improvement metric.
 */

#include <gtest/gtest.h>

#include "ansatz/ansatz.hpp"
#include "ham/ising.hpp"
#include "vqa/experiment.hpp"
#include "vqa/metrics.hpp"
#include "vqa/vqe.hpp"

using namespace eftvqa;

TEST(Vqe, IdealVqeFindsSingleQubitGround)
{
    // H = Z: ground energy -1, reachable with one Rx rotation.
    Hamiltonian h(2);
    h.addTerm(1.0, "ZI");
    h.addTerm(1.0, "IZ");
    const auto ansatz = linearHeaAnsatz(2, 1);

    NelderMeadOptimizer opt(0.8);
    const auto result =
        runVqe(ansatz, idealEvaluator(h), opt, {}, 600);
    EXPECT_NEAR(result.energy, -2.0, 1e-3);
}

TEST(Vqe, ParameterCountValidation)
{
    Hamiltonian h(2);
    h.addTerm(1.0, "ZZ");
    const auto ansatz = linearHeaAnsatz(2, 1);
    NelderMeadOptimizer opt;
    EXPECT_THROW(
        runVqe(ansatz, idealEvaluator(h), opt, {0.1}, 50),
        std::invalid_argument);
}

TEST(Vqe, BestOfImprovesOnSingleAttempt)
{
    const auto h = isingHamiltonian(4, 1.0);
    const auto ansatz = linearHeaAnsatz(4, 1);
    NelderMeadOptimizer opt(0.6);
    const auto single =
        runVqe(ansatz, idealEvaluator(h), opt, {}, 250);
    const auto multi =
        runBestOf(ansatz, idealEvaluator(h), opt, 250, 3, 99);
    EXPECT_LE(multi.energy, single.energy + 1e-9);
}

TEST(Vqe, NoisyEnergyAboveIdealEnergy)
{
    // With depolarizing noise the optimized energy can't beat ideal
    // ground truth for this Hamiltonian (max mixed state has energy 0).
    const auto h = isingHamiltonian(3, 0.5);
    const double e0 = h.groundStateEnergy();
    const auto ansatz = linearHeaAnsatz(3, 1);

    RegimeSpec noisy;
    noisy.name = "density-matrix";
    noisy.backend = sim::BackendKind::DensityMatrix;
    noisy.noise = sim::NoiseModel{};
    noisy.noise->dm.two_qubit_depol = 0.05;
    noisy.noise->dm.one_qubit_depol = 0.01;

    NelderMeadOptimizer opt(0.6);
    const auto result =
        runVqe(ansatz, sessionEvaluator(h, noisy), opt, {}, 300);
    EXPECT_GT(result.energy, e0 - 1e-9);
}

TEST(Vqe, HistoryRecordsEvaluations)
{
    Hamiltonian h(2);
    h.addTerm(1.0, "ZZ");
    const auto ansatz = linearHeaAnsatz(2, 1);
    NelderMeadOptimizer opt;
    const auto result =
        runVqe(ansatz, idealEvaluator(h), opt, {}, 100);
    EXPECT_EQ(result.history.size(), result.evaluations);
    EXPECT_LE(result.evaluations, 100u);
}

TEST(Metrics, RelativeImprovementDefinition)
{
    // E0 = -10; A reaches -9 (gap 1), B reaches -6 (gap 4): gamma = 4.
    EXPECT_DOUBLE_EQ(relativeImprovement(-10.0, -9.0, -6.0), 4.0);
}

TEST(Metrics, EqualRegimesGiveUnity)
{
    EXPECT_DOUBLE_EQ(relativeImprovement(-5.0, -4.0, -4.0), 1.0);
}

TEST(Metrics, ClampsDegenerateGap)
{
    // A exactly at E0: finite, very large gamma.
    const double g = relativeImprovement(-5.0, -5.0, -4.0);
    EXPECT_GT(g, 1e9);
    EXPECT_TRUE(std::isfinite(g));
}

TEST(Metrics, FidelityFromGap)
{
    EXPECT_DOUBLE_EQ(fidelityFromGap(-10.0, -10.0, 20.0), 1.0);
    EXPECT_DOUBLE_EQ(fidelityFromGap(-10.0, 0.0, 20.0), 0.5);
    EXPECT_DOUBLE_EQ(fidelityFromGap(-10.0, 30.0, 20.0), 0.0);
    EXPECT_THROW(fidelityFromGap(0.0, 1.0, 0.0), std::invalid_argument);
}
