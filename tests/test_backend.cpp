/**
 * @file
 * Tests for the sim::Backend abstraction: cross-backend parity on
 * random circuits, the expectationBatch kernels, Auto dispatch rules,
 * cloning and sampling.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/rng.hpp"
#include "ham/heisenberg.hpp"
#include "ham/ising.hpp"
#include "sim/backend.hpp"
#include "sim/density_matrix.hpp"
#include "sim/statevector.hpp"

#include "dm_oracle.hpp"

using namespace eftvqa;

namespace {

/** Random circuit; Clifford-only restricts rotations to k * pi/2. */
Circuit
randomCircuit(size_t n, size_t n_gates, Rng &rng, bool clifford_only)
{
    Circuit c(n);
    for (size_t g = 0; g < n_gates; ++g) {
        const auto q0 = static_cast<uint32_t>(rng.uniformInt(n));
        auto q1 = static_cast<uint32_t>(rng.uniformInt(n));
        while (q1 == q0)
            q1 = static_cast<uint32_t>(rng.uniformInt(n));
        switch (rng.uniformInt(clifford_only ? 9 : 10)) {
          case 0: c.h(q0); break;
          case 1: c.s(q0); break;
          case 2: c.sdg(q0); break;
          case 3: c.x(q0); break;
          case 4: c.z(q0); break;
          case 5: c.cx(q0, q1); break;
          case 6: c.cz(q0, q1); break;
          case 7:
            c.rz(q0, clifford_only
                         ? static_cast<double>(rng.uniformInt(4)) * M_PI / 2
                         : rng.uniform(0.0, 2 * M_PI));
            break;
          case 8:
            c.rx(q0, clifford_only
                         ? static_cast<double>(rng.uniformInt(4)) * M_PI / 2
                         : rng.uniform(0.0, 2 * M_PI));
            break;
          default: c.t(q0); break;
        }
    }
    return c;
}

/** All 4^n Pauli labels on n qubits. */
std::vector<PauliString>
allPaulis(size_t n)
{
    static const char letters[4] = {'I', 'X', 'Y', 'Z'};
    std::vector<PauliString> out;
    const size_t count = size_t{1} << (2 * n);
    out.reserve(count);
    for (size_t code = 0; code < count; ++code) {
        std::string label(n, 'I');
        for (size_t q = 0; q < n; ++q)
            label[q] = letters[(code >> (2 * q)) & 3];
        out.push_back(PauliString::fromLabel(label));
    }
    return out;
}

/** Random 4-qubit Hamiltonian with a mix of shared and unique X-masks. */
Hamiltonian
randomHamiltonian(size_t n, size_t n_terms, Rng &rng)
{
    static const char letters[4] = {'I', 'X', 'Y', 'Z'};
    Hamiltonian h(n);
    for (size_t t = 0; t < n_terms; ++t) {
        std::string label(n, 'I');
        for (size_t q = 0; q < n; ++q)
            label[q] = letters[rng.uniformInt(4)];
        h.addTerm(rng.uniform(-1.0, 1.0), label);
    }
    return h;
}

} // namespace

TEST(BackendParity, StatevectorVsDensityMatrixOnRandomCircuits)
{
    Rng rng(42);
    for (int trial = 0; trial < 5; ++trial) {
        const Circuit c = randomCircuit(4, 24, rng, false);
        auto sv = sim::makeBackend(sim::BackendKind::Statevector, 4);
        auto dm = sim::makeBackend(sim::BackendKind::DensityMatrix, 4);
        sv->prepare(c);
        dm->prepare(c);
        for (const auto &p : allPaulis(4))
            EXPECT_NEAR(sv->expectation(p), dm->expectation(p), 1e-10)
                << "trial " << trial << " P = " << p.toString();
    }
}

TEST(BackendParity, AllThreeBackendsAgreeOnCliffordCircuits)
{
    Rng rng(77);
    for (int trial = 0; trial < 5; ++trial) {
        const Circuit c = randomCircuit(4, 24, rng, true);
        ASSERT_TRUE(c.isClifford());
        auto sv = sim::makeBackend(sim::BackendKind::Statevector, 4);
        auto dm = sim::makeBackend(sim::BackendKind::DensityMatrix, 4);
        auto tab = sim::makeBackend(sim::BackendKind::Tableau, 4);
        sv->prepare(c);
        dm->prepare(c);
        tab->prepare(c);
        for (const auto &p : allPaulis(4)) {
            const double ref = tab->expectation(p);
            EXPECT_NEAR(sv->expectation(p), ref, 1e-10)
                << "trial " << trial << " P = " << p.toString();
            EXPECT_NEAR(dm->expectation(p), ref, 1e-10)
                << "trial " << trial << " P = " << p.toString();
        }
    }
}

TEST(BackendParity, ExpectationBatchMatchesPerTerm)
{
    Rng rng(11);
    const Circuit c = randomCircuit(4, 30, rng, false);
    const Hamiltonian ham = randomHamiltonian(4, 24, rng);

    Statevector psi(4);
    psi.run(c);
    const auto sv_batch = psi.expectationBatch(ham);
    const DensityMatrix rho = dm_oracle::noiseless(c);
    const auto dm_batch = rho.expectationBatch(ham);
    ASSERT_EQ(sv_batch.size(), ham.nTerms());
    ASSERT_EQ(dm_batch.size(), ham.nTerms());
    for (size_t k = 0; k < ham.nTerms(); ++k) {
        const auto &op = ham.terms()[k].op;
        EXPECT_NEAR(sv_batch[k], psi.expectation(op), 1e-10);
        EXPECT_NEAR(dm_batch[k], rho.expectation(op), 1e-10);
    }
}

TEST(BackendParity, BatchEnergyMatchesHamiltonianExpectation)
{
    const auto ham = heisenbergHamiltonian(6, 0.7);
    Rng rng(5);
    const Circuit c = randomCircuit(6, 40, rng, false);
    auto backend = sim::makeBackend(sim::BackendKind::Statevector, 6);
    backend->prepare(c);
    Statevector psi(6);
    psi.run(c);
    EXPECT_NEAR(backend->energy(ham), psi.expectation(ham), 1e-10);
}

TEST(BackendDispatch, AutoRulesFollowCircuitAndNoise)
{
    Circuit clifford(3);
    clifford.h(0);
    clifford.cx(0, 1);
    clifford.rz(2, M_PI / 2);
    Circuit generic(3);
    generic.rz(0, 0.3);

    const auto noise = sim::NoiseModel::nisq();
    using sim::BackendKind;
    using sim::resolveBackendKind;
    // Clifford-only circuit -> tableau, noisy or not.
    EXPECT_EQ(resolveBackendKind(BackendKind::Auto, clifford, nullptr),
              BackendKind::Tableau);
    EXPECT_EQ(resolveBackendKind(BackendKind::Auto, clifford, &noise),
              BackendKind::Tableau);
    // Non-Clifford: noise -> density matrix, else statevector.
    EXPECT_EQ(resolveBackendKind(BackendKind::Auto, generic, &noise),
              BackendKind::DensityMatrix);
    EXPECT_EQ(resolveBackendKind(BackendKind::Auto, generic, nullptr),
              BackendKind::Statevector);
    // Explicit requests pass through untouched.
    EXPECT_EQ(resolveBackendKind(BackendKind::DensityMatrix, clifford,
                                 nullptr),
              BackendKind::DensityMatrix);
    // A noiseless noise model does not force the density matrix.
    const sim::NoiseModel clean;
    EXPECT_TRUE(clean.isNoiseless());
    EXPECT_EQ(resolveBackendKind(BackendKind::Auto, generic, &clean),
              BackendKind::Statevector);

    // A model with only density-matrix channels cannot be simulated on
    // the tableau path: Clifford circuits fall through to the density
    // matrix so the noise is actually applied.
    sim::NoiseModel dm_only;
    dm_only.dm.two_qubit_depol = 0.01;
    EXPECT_TRUE(dm_only.hasDmNoise());
    EXPECT_FALSE(dm_only.hasCliffordNoise());
    EXPECT_EQ(resolveBackendKind(BackendKind::Auto, clifford, &dm_only),
              BackendKind::DensityMatrix);
    // A trajectory-only model keeps Clifford circuits on the tableau.
    sim::NoiseModel clifford_only;
    clifford_only.clifford.two_qubit_depol = 0.01;
    EXPECT_EQ(resolveBackendKind(BackendKind::Auto, clifford,
                                 &clifford_only),
              BackendKind::Tableau);
}

TEST(BackendDispatch, AutoBackendSwitchesSubstratePerCircuit)
{
    auto backend = sim::makeBackend(sim::BackendKind::Auto, 2);
    EXPECT_EQ(backend->kind(), sim::BackendKind::Auto);

    Circuit clifford(2);
    clifford.h(0);
    clifford.cx(0, 1);
    backend->prepare(clifford);
    EXPECT_EQ(backend->kind(), sim::BackendKind::Tableau);
    EXPECT_NEAR(backend->expectation(PauliString::fromLabel("XX")), 1.0,
                1e-12);

    Circuit generic(2);
    generic.rx(0, 0.4);
    backend->prepare(generic);
    EXPECT_EQ(backend->kind(), sim::BackendKind::Statevector);
    EXPECT_NEAR(backend->expectation(PauliString::fromLabel("ZI")),
                std::cos(0.4), 1e-12);
}

TEST(BackendDispatch, StatevectorRejectsNoise)
{
    const auto noise = sim::NoiseModel::nisq();
    EXPECT_THROW(
        sim::makeBackend(sim::BackendKind::Statevector, 2, &noise),
        std::invalid_argument);
}

TEST(BackendDispatch, QueryBeforePrepareThrows)
{
    auto backend = sim::makeBackend(sim::BackendKind::Auto, 2);
    EXPECT_THROW(backend->expectation(PauliString::fromLabel("ZZ")),
                 std::logic_error);
}

TEST(Backend, NoisyEnergiesDegradeTowardZero)
{
    // Depolarizing noise pulls expectations toward the maximally mixed
    // state, so |<H>| shrinks under both noisy substrates.
    const auto ham = isingHamiltonian(4, 1.0);
    Circuit c(4);
    for (uint32_t q = 0; q < 4; ++q)
        c.rx(q, M_PI); // |1111>, energy well below 0
    auto ideal = sim::makeBackend(sim::BackendKind::Statevector, 4);
    ideal->prepare(c);
    const double e_ideal = ideal->energy(ham);

    sim::NoiseModel noise;
    noise.dm.two_qubit_depol = 0.05;
    noise.dm.one_qubit_depol = 0.05;
    noise.dm.rotation = depolarizingPauliChannel(0.05);
    noise.clifford.one_qubit = depolarizingPauliChannel(0.05);
    noise.clifford.two_qubit_depol = 0.05;
    noise.clifford.rotation = depolarizingPauliChannel(0.05);
    noise.trajectories = 400;
    auto dm = sim::makeBackend(sim::BackendKind::DensityMatrix, 4, &noise);
    dm->prepare(c);
    EXPECT_GT(dm->energy(ham), e_ideal + 1e-6);

    auto tab = sim::makeBackend(sim::BackendKind::Tableau, 4, &noise);
    tab->prepare(c);
    EXPECT_GT(tab->energy(ham), e_ideal + 1e-6);
}

TEST(Backend, CloneReproducesState)
{
    Circuit bell(2);
    bell.h(0);
    bell.cx(0, 1);
    auto backend = sim::makeBackend(sim::BackendKind::Statevector, 2);
    backend->prepare(bell);
    auto copy = backend->clone();
    EXPECT_EQ(copy->kind(), sim::BackendKind::Statevector);
    for (const auto &label : {"XX", "YY", "ZZ", "ZI"})
        EXPECT_DOUBLE_EQ(copy->expectation(PauliString::fromLabel(label)),
                         backend->expectation(PauliString::fromLabel(label)));

    // Clones of a Monte-Carlo backend replay the same trajectory stream.
    sim::NoiseModel noise;
    noise.clifford.one_qubit = depolarizingPauliChannel(0.1);
    noise.trajectories = 50;
    auto noisy = sim::makeBackend(sim::BackendKind::Tableau, 2, &noise);
    noisy->prepare(bell);
    auto noisy_copy = noisy->clone();
    const PauliString zz = PauliString::fromLabel("ZZ");
    EXPECT_DOUBLE_EQ(noisy->expectation(zz), noisy_copy->expectation(zz));
}

TEST(Backend, SamplesRespectBellCorrelations)
{
    Circuit bell(2);
    bell.h(0);
    bell.cx(0, 1);
    Rng rng(9);
    for (const auto kind : {sim::BackendKind::Statevector,
                            sim::BackendKind::DensityMatrix,
                            sim::BackendKind::Tableau}) {
        auto backend = sim::makeBackend(kind, 2);
        backend->prepare(bell);
        const auto shots = backend->sample(400, rng);
        ASSERT_EQ(shots.size(), 400u);
        size_t ones = 0;
        for (const uint64_t s : shots) {
            EXPECT_TRUE(s == 0b00 || s == 0b11)
                << sim::backendKindName(kind);
            if (s == 0b11)
                ++ones;
        }
        EXPECT_GT(ones, 120u) << sim::backendKindName(kind);
        EXPECT_LT(ones, 280u) << sim::backendKindName(kind);
    }
}

TEST(Backend, KindNames)
{
    EXPECT_EQ(sim::backendKindName(sim::BackendKind::Auto), "auto");
    EXPECT_EQ(sim::backendKindName(sim::BackendKind::Statevector),
              "statevector");
    EXPECT_EQ(sim::backendKindName(sim::BackendKind::DensityMatrix),
              "density_matrix");
    EXPECT_EQ(sim::backendKindName(sim::BackendKind::Tableau), "tableau");
}
