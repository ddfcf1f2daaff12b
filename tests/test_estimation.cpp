/**
 * @file
 * Tests for the EstimationEngine: term grouping, exact vs shot-based
 * estimation, regime parity with the pre-engine evaluation paths, and
 * the engine-consuming metrics helper.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "ansatz/ansatz.hpp"
#include "ham/heisenberg.hpp"
#include "ham/ising.hpp"
#include "noise/noise_model.hpp"
#include "pauli/term_groups.hpp"
#include "sim/statevector.hpp"
#include "stabilizer/noisy_clifford.hpp"
#include "vqa/estimation.hpp"
#include "vqa/experiment.hpp"
#include "vqa/metrics.hpp"

using namespace eftvqa;

TEST(TermGroups, XMaskGroupsPartitionTerms)
{
    const auto ham = heisenbergHamiltonian(6, 1.0);
    const auto groups = groupByXMask(ham);
    size_t covered = 0;
    for (const auto &g : groups) {
        for (const size_t k : g.term_indices) {
            const auto &xw = ham.terms()[k].op.xWords();
            EXPECT_EQ(xw.empty() ? 0 : xw[0], g.x_mask);
            ++covered;
        }
    }
    EXPECT_EQ(covered, ham.nTerms());
    // All ZZ terms share the empty X-mask, so grouping must compress.
    EXPECT_LT(groups.size(), ham.nTerms());
}

TEST(TermGroups, QwcGroupsAreMutuallyCommuting)
{
    const auto ham = heisenbergHamiltonian(6, 1.0);
    const auto groups = groupQubitwiseCommuting(ham);
    size_t covered = 0;
    for (const auto &group : groups) {
        for (size_t a = 0; a < group.size(); ++a)
            for (size_t b = a + 1; b < group.size(); ++b)
                EXPECT_TRUE(qubitwiseCommute(ham.terms()[group[a]].op,
                                             ham.terms()[group[b]].op));
        covered += group.size();
    }
    EXPECT_EQ(covered, ham.nTerms());
    EXPECT_LT(groups.size(), ham.nTerms());
}

TEST(TermGroups, QubitwiseCommutation)
{
    EXPECT_TRUE(qubitwiseCommute(PauliString::fromLabel("XIZ"),
                                 PauliString::fromLabel("XYZ")));
    EXPECT_FALSE(qubitwiseCommute(PauliString::fromLabel("XY"),
                                  PauliString::fromLabel("XZ")));
    // ZZ and XX commute globally but not qubit-wise.
    EXPECT_FALSE(qubitwiseCommute(PauliString::fromLabel("ZZ"),
                                  PauliString::fromLabel("XX")));
}

TEST(TermGroups, HermitianSign)
{
    EXPECT_DOUBLE_EQ(hermitianSign(PauliString::fromLabel("XYZ")), 1.0);
    // Y * X = -i (XY product ...): build -YX via multiplication and
    // check the sign tracks the phase exactly.
    const PauliString y = PauliString::fromLabel("Y");
    const PauliString x = PauliString::fromLabel("X");
    const PauliString yx = y * x; // = -i * (i X Z) ... Hermitian +/-
    if (yx.isHermitian())
        EXPECT_NO_THROW(hermitianSign(yx));
}

TEST(EstimationEngine, ExactEnergyMatchesStatevector)
{
    const auto ham = heisenbergHamiltonian(5, 0.8);
    const auto ansatz = fcheAnsatz(5, 1);
    const auto bound =
        ansatz.bind(std::vector<double>(ansatz.nParameters(), 0.4));

    EstimationEngine engine(ham, EstimationConfig{});
    Statevector psi(5);
    psi.run(bound);
    EXPECT_NEAR(engine.energy(bound), psi.expectation(ham), 1e-10);
    ASSERT_NE(engine.backend(), nullptr);
    EXPECT_EQ(engine.backend()->kind(), sim::BackendKind::Statevector);
}

TEST(EstimationEngine, DensityMatrixRegimeMatchesLegacyPath)
{
    const auto ham = isingHamiltonian(4, 1.0);
    const auto ansatz = fcheAnsatz(4, 1);
    const auto bound =
        ansatz.bind(std::vector<double>(ansatz.nParameters(), 0.3));

    const DmNoiseSpec spec = nisqDmSpec(NisqParams{});
    sim::NoiseModel noise;
    noise.dm = spec;
    EstimationConfig config;
    config.backend = sim::BackendKind::DensityMatrix;
    config.noise = noise;
    EstimationEngine engine(ham, config);
    const auto backend = sim::makeBackend(sim::BackendKind::DensityMatrix,
                                          bound.nQubits(), &noise);
    backend->prepare(bound);
    EXPECT_NEAR(engine.energy(bound), backend->energy(ham), 1e-10);
}

TEST(EstimationEngine, TableauRegimeMatchesTrajectorySimulator)
{
    const auto ham = isingHamiltonian(6, 1.0);
    const auto ansatz = fcheAnsatz(6, 1);
    const auto bound = ansatz.bind(
        std::vector<double>(ansatz.nParameters(), M_PI / 2));
    ASSERT_TRUE(bound.isClifford());

    const CliffordNoiseSpec spec = nisqCliffordSpec(NisqParams{});
    const uint64_t seed = 314;
    const size_t trajectories = 64;

    sim::NoiseModel noise;
    noise.clifford = spec;
    noise.trajectories = trajectories;
    noise.seed = seed;
    EstimationConfig config;
    config.backend = sim::BackendKind::Tableau;
    config.noise = noise;
    EstimationEngine engine(ham, config);

    NoisyCliffordSimulator reference(spec, seed);
    EXPECT_NEAR(engine.energy(bound),
                reference.energy(bound, ham, trajectories), 1e-12);
}

TEST(EstimationEngine, ShotEstimationConvergesToExact)
{
    // Bell state: <XX> = <ZZ> = 1, <YY> = -1 exactly.
    Hamiltonian ham(2);
    ham.addTerm(0.5, "XX");
    ham.addTerm(0.5, "ZZ");
    ham.addTerm(-0.25, "YY");
    Circuit bell(2);
    bell.h(0);
    bell.cx(0, 1);

    EstimationConfig exact_config;
    EstimationEngine exact(ham, exact_config);
    const double e_exact = exact.energy(bell);
    EXPECT_NEAR(e_exact, 1.25, 1e-12);

    EstimationConfig shot_config;
    shot_config.shots = 4000;
    shot_config.seed = 2024;
    EstimationEngine shotty(ham, shot_config);
    // Every term is +/-1-valued on the Bell state, so each group's
    // estimate is exact regardless of shot count.
    EXPECT_NEAR(shotty.energy(bell), e_exact, 1e-12);
}

TEST(EstimationEngine, ShotEstimationStatisticalAccuracy)
{
    // Rotated single-qubit state: <Z> = cos(0.7), estimated from shots.
    Hamiltonian ham(1);
    ham.addTerm(1.0, "Z");
    Circuit c(1);
    c.rx(0, 0.7);

    EstimationConfig config;
    config.shots = 20000;
    config.seed = 7;
    EstimationEngine engine(ham, config);
    EXPECT_NEAR(engine.energy(c), std::cos(0.7), 0.03);
}

TEST(EstimationEngine, EvaluatorAdapterSharesEngine)
{
    const auto ham = isingHamiltonian(3, 0.5);
    EstimationEngine engine(ham, EstimationConfig{});
    auto evaluate = engine.evaluator();
    Circuit c(3);
    c.rx(0, 1.1);
    EXPECT_DOUBLE_EQ(evaluate(c), engine.energy(c));
}

TEST(EstimationEngine, WidthMismatchThrows)
{
    EstimationEngine engine(isingHamiltonian(3, 1.0), EstimationConfig{});
    EXPECT_THROW(engine.energy(Circuit(4)), std::invalid_argument);
}

TEST(Metrics, CompareRegimesReportsGamma)
{
    const auto ham = isingHamiltonian(4, 1.0);
    Circuit good(4);
    for (uint32_t q = 0; q < 4; ++q)
        good.rx(q, M_PI); // ground-ish state of the field term
    Circuit bad(4); // |0000> sits higher for this Hamiltonian

    ExperimentSpec spec;
    spec.hamiltonian = ham;
    spec.ansatz = Circuit(4);
    spec.regimes = {RegimeSpec::ideal().named("a"),
                    RegimeSpec::ideal().named("b")};
    ExperimentSession session(std::move(spec));
    const double e0 = ham.groundStateEnergy();
    const auto cmp =
        compareRegimes(session, session.spec().regime("a"), good,
                       session.spec().regime("b"), bad, e0);
    EXPECT_LT(cmp.energy_a, cmp.energy_b);
    EXPECT_GT(cmp.gamma, 1.0);
    EXPECT_DOUBLE_EQ(cmp.gamma,
                     relativeImprovement(e0, cmp.energy_a, cmp.energy_b));
}
