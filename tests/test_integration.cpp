/**
 * @file
 * Cross-module integration tests: end-to-end slices of the paper's
 * evaluation pipelines at laptop scale.
 */

#include <gtest/gtest.h>

#include "ansatz/ansatz.hpp"
#include "compile/fidelity_model.hpp"
#include "compile/rus_expansion.hpp"
#include "ham/heisenberg.hpp"
#include "ham/ising.hpp"
#include "ham/molecule.hpp"
#include "mitigation/varsaw.hpp"
#include "noise/noise_model.hpp"
#include "vqa/experiment.hpp"

using namespace eftvqa;

/**
 * Fig 13 pipeline slice: density-matrix VQE under NISQ and pQEC noise;
 * gamma(pQEC/NISQ) must exceed 1 for an entangling-heavy ansatz.
 */
TEST(Integration, DensityMatrixGammaFavorsPqec)
{
    const int n = 6;
    const auto ham = isingHamiltonian(n, 1.0);
    const double e0 = ham.groundStateEnergy();
    const auto ansatz = fcheAnsatz(n, 1);

    NelderMeadOptimizer opt(0.6);
    const auto nisq = runBestOf(
        ansatz, sessionEvaluator(ham, RegimeSpec::nisqDensityMatrix()), opt,
        250, 2, 7);
    const auto pqec = runBestOf(
        ansatz, sessionEvaluator(ham, RegimeSpec::pqecDensityMatrix()), opt,
        250, 2, 7);

    const double gamma = relativeImprovement(e0, pqec.energy, nisq.energy);
    EXPECT_GT(gamma, 1.0);
}

/**
 * Fig 12 pipeline slice: Clifford VQE under trajectory noise; pQEC's
 * energy should land closer to the stabilizer reference than NISQ's.
 */
TEST(Integration, CliffordVqeGammaFavorsPqec)
{
    // Ising at J = 1: both regimes' GAs reliably find the same region
    // of the discrete landscape within this budget, so gamma isolates
    // the noise difference rather than optimizer luck.
    const int n = 8;
    const auto ham = isingHamiltonian(n, 1.0);
    const auto ansatz = fcheAnsatz(n, 1);

    GeneticConfig config;
    config.population = 24;
    config.generations = 15;
    config.seed = 21;

    const auto nisq_spec = nisqCliffordSpec(NisqParams{});
    const auto pqec_spec = pqecCliffordSpec(PqecParams{});
    ExperimentSpec spec;
    spec.hamiltonian = ham;
    spec.ansatz = ansatz;
    spec.genetic = config;
    ExperimentSession session(std::move(spec));
    const auto nisq =
        session.cliffordVqe(RegimeSpec::tableau(nisq_spec, 40));
    const auto pqec =
        session.cliffordVqe(RegimeSpec::tableau(pqec_spec, 40));
    // E0 = best noiseless stabilizer energy seen anywhere (section
    // 5.3.1): the dedicated reference GA plus both winners' ideal
    // energies.
    const double e0 = std::min({session.cliffordReference(),
                                nisq.ideal_energy, pqec.ideal_energy});

    // Re-evaluate both winners with a fresh, larger sample: the GA's
    // own best values are optimistically biased.
    const double e_nisq = reevaluateCliffordEnergy(
        ansatz, nisq.angles, ham, nisq_spec, 1500, 991);
    const double e_pqec = reevaluateCliffordEnergy(
        ansatz, pqec.angles, ham, pqec_spec, 1500, 992);
    const double gamma =
        relativeImprovement(e0, e_pqec, e_nisq, 2.0 / 1500.0);
    EXPECT_GT(gamma, 1.0);
}

/**
 * Fig 2 pipeline: a pQEC circuit expanded to its runtime RUS form still
 * optimizes to the same ideal energy.
 */
TEST(Integration, RusExpandedCircuitPreservesVqeEnergy)
{
    const auto ham = isingHamiltonian(3, 0.5);
    const auto ansatz = linearHeaAnsatz(3, 1);
    NelderMeadOptimizer opt(0.6);
    const auto result = runVqe(ansatz, idealEvaluator(ham), opt, {}, 300);

    Rng rng(31);
    const auto bound = ansatz.bind(result.params);
    const auto expansion = expandRepeatUntilSuccess(bound, rng);
    Statevector psi(3);
    psi.run(expansion.runtime_circuit);
    EXPECT_NEAR(psi.expectation(ham), result.energy, 1e-9);
}

/**
 * Fig 15 pipeline: measurement mitigation improves the noisy energy in
 * both regimes.
 */
TEST(Integration, VarsawImprovesBothRegimes)
{
    const int n = 4;
    const auto ham = isingHamiltonian(n, 1.0);
    const auto ansatz = fcheAnsatz(n, 1);
    NelderMeadOptimizer opt(0.6);

    for (bool use_pqec : {false, true}) {
        const RegimeSpec regime = use_pqec ? RegimeSpec::pqecDensityMatrix()
                                           : RegimeSpec::nisqDensityMatrix();
        const DmNoiseSpec &spec = regime.noise->dm;
        const double q = spec.meas_flip;
        const auto noisy =
            runVqe(ansatz, sessionEvaluator(ham, regime), opt, {}, 200);

        // Mitigated energy: divide each term's damped expectation back.
        const auto bound = ansatz.bind(noisy.params);
        DensityMatrix rho(static_cast<size_t>(n));
        rho.runPassesFromZero(compileNoisyDmStream(bound, spec));
        const auto cal =
            ReadoutCalibration::uniform(static_cast<size_t>(n), q);
        std::vector<double> damped;
        for (const auto &t : ham.terms())
            damped.push_back(rho.expectation(t.op) *
                             cal.dampingFactor(t.op));
        const double mitigated = mitigatedEnergy(ham, damped, cal);
        EXPECT_LE(mitigated, noisy.energy + 1e-9)
            << (use_pqec ? "pqec" : "nisq");
    }
}

/**
 * Fig 4 + Table 2 coherence: the fidelity model's pQEC estimates use
 * the same scheduler that reproduces Table 2.
 */
TEST(Integration, FidelityModelUsesCalibratedScheduler)
{
    FidelityModel model(DeviceConfig{});
    const auto est = model.pqec(AnsatzKind::BlockedAllToAll, 20, 1);
    EXPECT_DOUBLE_EQ(est.cycles, 71.0);
    const auto est_fche = model.pqec(AnsatzKind::Fche, 20, 1);
    EXPECT_DOUBLE_EQ(est_fche.cycles, 131.0);
}

/**
 * Chemistry pipeline: molecular surrogate Hamiltonians flow through the
 * full noisy-VQE machinery (small active space for test speed).
 */
TEST(Integration, MolecularSurrogateVqeRuns)
{
    // Shrink the surrogate to 6 qubits by taking a small spec.
    MoleculeSpec spec{Molecule::LiH, 1.0, 6};
    // Term budget is for 12 qubits; the generator honours n_qubits but
    // we only check the pipeline runs and improves over the start.
    const auto ham = moleculeHamiltonian(spec);
    ASSERT_EQ(ham.nQubits(), 6u);
    const auto ansatz = fcheAnsatz(6, 1);
    NelderMeadOptimizer opt(0.5);
    const auto ideal = runVqe(ansatz, idealEvaluator(ham), opt, {}, 200);
    const auto start = ansatz.bind(
        std::vector<double>(ansatz.nParameters(), 0.1));
    Statevector psi(6);
    psi.run(start);
    EXPECT_LT(ideal.energy, psi.expectation(ham) + 1e-9);
}
