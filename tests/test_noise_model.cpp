/**
 * @file
 * Tests for the NISQ / pQEC regime noise models.
 */

#include <gtest/gtest.h>

#include "ham/ising.hpp"
#include "noise/noise_model.hpp"
#include "sim/backend.hpp"

using namespace eftvqa;

namespace {

/** Tr(H rho) after the density-matrix backend's prepare() under
 *  @p spec, readout damping included. */
double
dmEnergy(const Circuit &circuit, const Hamiltonian &ham,
         const DmNoiseSpec &spec)
{
    sim::NoiseModel model;
    model.dm = spec;
    const auto backend = sim::makeBackend(sim::BackendKind::DensityMatrix,
                                          circuit.nQubits(), &model);
    backend->prepare(circuit);
    return backend->energy(ham);
}

} // namespace

TEST(NoiseModel, NisqErrorRatesMatchPaper)
{
    NisqParams params;
    EXPECT_DOUBLE_EQ(params.cxError(), 1e-3);
    EXPECT_DOUBLE_EQ(params.oneQubitError(), 1e-4);
    EXPECT_DOUBLE_EQ(params.rzError(), 0.0);
    EXPECT_DOUBLE_EQ(params.measError(), 1e-2);
}

TEST(NoiseModel, PqecCliffordErrorNearPaperValue)
{
    PqecParams params; // d = 11, p = 1e-3
    EXPECT_NEAR(params.cliffordError(), 1e-7, 1e-8);
}

TEST(NoiseModel, PqecRzErrorIs23pOver30)
{
    PqecParams params;
    EXPECT_NEAR(params.rzError(), 23.0 * 1e-3 / 30.0, 1e-12);
    EXPECT_NEAR(params.rzError(), 0.76e-3, 1e-5); // paper's 0.76e-3
}

TEST(NoiseModel, PqecRzDominatesCliffordError)
{
    PqecParams params;
    EXPECT_GT(params.rzError() / params.cliffordError(), 1e3);
}

TEST(NoiseModel, CliffordSpecsPopulated)
{
    const auto nisq = nisqCliffordSpec(NisqParams{});
    EXPECT_DOUBLE_EQ(nisq.two_qubit_depol, 1e-3);
    EXPECT_DOUBLE_EQ(nisq.meas_flip, 1e-2);
    EXPECT_GT(nisq.idle.px + nisq.idle.py + nisq.idle.pz, 0.0);

    const auto pqec = pqecCliffordSpec(PqecParams{});
    EXPECT_NEAR(pqec.two_qubit_depol, 1e-7, 1e-8);
    EXPECT_NEAR(pqec.rotation.px + pqec.rotation.py + pqec.rotation.pz,
                0.76e-3, 1e-5);
    // The stabilizer path twirls consumption errors to depolarizing.
    EXPECT_DOUBLE_EQ(pqec.rotation.px, pqec.rotation.pz);
}

TEST(NoiseModel, DmSpecsMirrorCliffordSpecs)
{
    const auto nisq = nisqDmSpec(NisqParams{});
    EXPECT_TRUE(nisq.use_relaxation);
    EXPECT_DOUBLE_EQ(nisq.two_qubit_depol, 1e-3);

    const auto pqec = pqecDmSpec(PqecParams{});
    EXPECT_FALSE(pqec.use_relaxation);
    EXPECT_GT(pqec.idle_depol, 0.0);
}

TEST(NoiseModel, NoiselessDmRunMatchesIdeal)
{
    Circuit c(2);
    c.h(0);
    c.cx(0, 1);
    Hamiltonian h(2);
    h.addTerm(1.0, "ZZ");
    DmNoiseSpec clean; // all zeros
    EXPECT_NEAR(dmEnergy(c, h, clean), 1.0, 1e-10);
}

TEST(NoiseModel, DmLevelBucketingAppliesEveryGate)
{
    // Regression for the non-monotone-ASAP-level gate lists of
    // all-to-all entanglers: the layered noisy runner must execute the
    // full circuit (with zero noise it must equal the statevector).
    Circuit c(5);
    for (int q = 0; q < 5; ++q)
        c.ry(static_cast<uint32_t>(q), 0.3 + 0.1 * q);
    for (int a = 0; a < 5; ++a)
        for (int b = a + 1; b < 5; ++b)
            c.cx(static_cast<uint32_t>(a), static_cast<uint32_t>(b));

    Hamiltonian h(5);
    h.addTerm(1.0, "ZZIII");
    h.addTerm(0.5, "IIXXI");
    h.addTerm(-0.25, "YIIIY");

    Statevector psi(5);
    psi.run(c);
    DmNoiseSpec clean;
    EXPECT_NEAR(dmEnergy(c, h, clean), psi.expectation(h), 1e-10);
}

TEST(NoiseModel, NisqDegradesMoreThanPqecOnBell)
{
    // Many CNOTs, no rotations: pQEC should be nearly perfect while
    // NISQ accumulates two-qubit errors. 21 CNOTs (odd) leave the Bell
    // pair entangled with <ZZ> = 1.
    Circuit c(2);
    c.h(0);
    for (int i = 0; i < 21; ++i)
        c.cx(0, 1);
    Hamiltonian h(2);
    h.addTerm(1.0, "ZZ");

    const double e_nisq = dmEnergy(c, h, nisqDmSpec(NisqParams{}));
    const double e_pqec = dmEnergy(c, h, pqecDmSpec(PqecParams{}));
    // Ideal value 1.0 (even number of CNOTs leaves the Bell pair
    // correlated): pQEC should be closer.
    EXPECT_GT(e_pqec, e_nisq);
    EXPECT_NEAR(e_pqec, 1.0, 1e-3);
}

TEST(NoiseModel, MeasurementFlipDampingInDmEnergy)
{
    Circuit c(1);
    c.x(0);
    Hamiltonian h(1);
    h.addTerm(1.0, "Z");
    DmNoiseSpec spec;
    spec.meas_flip = 0.1;
    // <Z> = -1, damped by (1-0.2) = -0.8.
    EXPECT_NEAR(dmEnergy(c, h, spec), -0.8, 1e-10);
}

TEST(NoiseModel, IdleDepolHitsWaitingQubitsInDm)
{
    Circuit c(2);
    c.h(1);
    for (int i = 0; i < 30; ++i)
        c.h(0); // qubit 1 idles
    Hamiltonian h(2);
    h.addTerm(1.0, "IX");
    DmNoiseSpec spec;
    spec.idle_depol = 0.05;
    const double e = dmEnergy(c, h, spec);
    EXPECT_LT(e, 0.5);
    EXPECT_GT(e, -0.05);
}
