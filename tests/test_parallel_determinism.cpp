/**
 * @file
 * Determinism contract of the parallel execution layer: the OpenMP
 * trajectory farm and the clone-parallel EstimationEngine::energies
 * batch, and the dense expectations that run inside them, must all
 * return at OpenMP team sizes 2 and 4 the bits a team of one returns,
 * and the LRU energy cache must collapse duplicate genomes into
 * lookups.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "ansatz/ansatz.hpp"
#include "ham/heisenberg.hpp"
#include "ham/ising.hpp"
#include "ham/molecule.hpp"
#include "noise/noise_model.hpp"
#include "sim/density_matrix.hpp"
#include "sim/statevector.hpp"
#include "stabilizer/noisy_clifford.hpp"
#include "vqa/clifford_vqe.hpp"
#include "vqa/estimation.hpp"
#include "vqa/optimizer.hpp"

#include "dm_oracle.hpp"
#include "omp_team.hpp"

using namespace eftvqa;

namespace {

/** Bound Clifford FCHE circuit on n qubits. */
Circuit
cliffordAnsatz(int n, uint64_t angle_seed)
{
    const auto ansatz = fcheAnsatz(n, 1);
    Rng rng(angle_seed);
    std::vector<double> params(ansatz.nParameters());
    for (auto &p : params)
        p = static_cast<double>(rng.uniformInt(4)) * M_PI / 2.0;
    return ansatz.bind(params);
}

CliffordNoiseSpec
testSpec()
{
    CliffordNoiseSpec spec;
    spec.one_qubit.px = 0.002;
    spec.one_qubit.pz = 0.003;
    spec.two_qubit_depol = 0.01;
    spec.rotation.py = 0.004;
    spec.idle.pz = 0.001;
    spec.meas_flip = 0.01;
    return spec;
}

} // namespace

TEST(ParallelDeterminism, EnergySamplesMatchSerialReference)
{
    const Circuit circuit = cliffordAnsatz(12, 7);
    const auto ham = isingHamiltonian(12, 1.0);
    omp_team::expectSameBits([&] {
        NoisyCliffordSimulator sim(testSpec(), 99);
        return sim.energySamples(circuit, ham, 64);
    });
}

TEST(ParallelDeterminism, TermExpectationsMatchSerialReference)
{
    const Circuit circuit = cliffordAnsatz(14, 3);
    const auto ham = heisenbergHamiltonian(14, 1.0);
    omp_team::expectSameBits([&] {
        NoisyCliffordSimulator sim(testSpec(), 1234);
        return sim.termExpectations(circuit, ham, 48);
    });
}

TEST(ParallelDeterminism, TrajectoryFarmThreadCountInvariant)
{
    const Circuit circuit = cliffordAnsatz(12, 11);
    const auto ham = isingHamiltonian(12, 0.5);
    omp_team::expectSameBits([&] {
        NoisyCliffordSimulator sim(testSpec(), 42);
        return sim.termExpectations(circuit, ham, 40);
    });
}

TEST(ParallelDeterminism, StatevectorBatchMatchesSerial)
{
    // The Heisenberg chain's 12 X-mask groups over 2^12 amplitudes.
    const int n = 12;
    Statevector psi(n);
    const auto ansatz = fcheAnsatz(n, 1);
    psi.run(ansatz.bind(std::vector<double>(ansatz.nParameters(), 0.3)));
    const auto ham = heisenbergHamiltonian(n, 1.0);
    omp_team::expectSameBits([&] { return psi.expectationBatch(ham); });
}

TEST(ParallelDeterminism, DensityMatrixBatchMatchesSerial)
{
    // An 8-qubit molecule, as in the density-matrix figures.
    const int n = 8;
    const auto ansatz = fcheAnsatz(n, 1);
    const DensityMatrix rho = dm_oracle::noiseless(
        ansatz.bind(std::vector<double>(ansatz.nParameters(), 0.4)));
    const auto ham = moleculeHamiltonian({Molecule::H6, 1.0, 8});
    omp_team::expectSameBits([&] { return rho.expectationBatch(ham); });
}

TEST(ParallelDeterminism, BatchThreadCountInvariant)
{
    // Three X-mask groups over 2^14 amplitudes.
    const int n = 14;
    Statevector psi(n);
    const auto ansatz = fcheAnsatz(n, 1);
    psi.run(ansatz.bind(std::vector<double>(ansatz.nParameters(), 0.7)));
    Hamiltonian ham(n);
    for (int q = 0; q + 1 < n; ++q) {
        std::string zz(n, 'I');
        zz[q] = zz[q + 1] = 'Z';
        ham.addTerm(0.5 + 0.05 * q, zz);
    }
    for (const int q : {2, 9})
        for (const char p : {'X', 'Y'}) {
            std::string pp(n, 'I');
            pp[q] = pp[q + 1] = p;
            ham.addTerm(0.75, pp);
        }
    omp_team::expectSameBits([&] { return psi.expectationBatch(ham); });
}

TEST(ParallelDeterminism, SingleTermExpectationThreadCountInvariant)
{
    // Statevector::expectation(PauliString) is one ascending pass over
    // all 2^16 amplitudes, whatever the team size.
    const int n = 16;
    Statevector psi(n);
    const auto ansatz = fcheAnsatz(n, 1);
    psi.run(ansatz.bind(std::vector<double>(ansatz.nParameters(), 0.45)));
    const auto ham = heisenbergHamiltonian(n, 1.0);
    omp_team::expectSameBits([&] {
        std::vector<double> values;
        for (const auto &t : ham.terms())
            values.push_back(psi.expectation(t.op));
        return values;
    });
}

TEST(ParallelDeterminism, EnergiesBatchMatchesSerialReference)
{
    // Eight distinct circuits fill a team of 2 or 4, so energies() fans
    // them out across clones; a team of one evaluates them in order.
    const int n = 10;
    const auto ham = isingHamiltonian(n, 1.0);
    std::vector<Circuit> population;
    for (uint64_t s = 0; s < 8; ++s)
        population.push_back(cliffordAnsatz(n, s));
    omp_team::expectSameBits([&] {
        EstimationEngine engine(
            ham, EstimationConfig::tableau(testSpec(), 32, 777));
        return engine.energies(population);
    });
}

TEST(ParallelDeterminism, EnergiesBatchIsOrderIndependent)
{
    // Clone-per-circuit evaluation means a circuit's energy cannot
    // depend on where it sits in the batch.
    const int n = 8;
    const auto ham = heisenbergHamiltonian(n, 1.0);
    std::vector<Circuit> forward, reversed;
    for (uint64_t s = 0; s < 6; ++s)
        forward.push_back(cliffordAnsatz(n, s));
    reversed.assign(forward.rbegin(), forward.rend());

    EstimationConfig config = EstimationConfig::tableau(testSpec(), 24, 5);
    EstimationEngine engine_a(ham, config);
    EstimationEngine engine_b(ham, config);
    const auto fwd = engine_a.energies(forward);
    const auto rev = engine_b.energies(reversed);
    for (size_t i = 0; i < fwd.size(); ++i)
        EXPECT_EQ(fwd[i], rev[fwd.size() - 1 - i]);
}

TEST(ParallelDeterminism, ShotPathEnergiesBatchIsOrderIndependent)
{
    // Shot streams are seeded from the circuit's content hash, so shot
    // noise also cannot depend on batch position.
    const int n = 6;
    const auto ham = isingHamiltonian(n, 1.0);
    std::vector<Circuit> forward, reversed;
    for (uint64_t s = 0; s < 5; ++s)
        forward.push_back(cliffordAnsatz(n, s));
    reversed.assign(forward.rbegin(), forward.rend());

    EstimationConfig config;
    config.backend = sim::BackendKind::Statevector;
    config.shots = 64;
    config.seed = 404;
    EstimationEngine engine_a(ham, config);
    EstimationEngine engine_b(ham, config);
    const auto fwd = engine_a.energies(forward);
    const auto rev = engine_b.energies(reversed);
    for (size_t i = 0; i < fwd.size(); ++i)
        EXPECT_EQ(fwd[i], rev[fwd.size() - 1 - i]);
}

TEST(ParallelDeterminism, EnergiesBatchPropagatesBackendErrors)
{
    // Exceptions thrown by workers inside the parallel fan-out must
    // surface as catchable exceptions, not std::terminate.
    const int n = 4;
    const auto ham = isingHamiltonian(n, 1.0);
    EstimationConfig config = EstimationConfig::tableau(testSpec(), 4, 1);
    EstimationEngine engine(ham, config);

    Circuit non_clifford(static_cast<size_t>(n));
    non_clifford.rz(0, 0.3);
    const std::vector<Circuit> population = {cliffordAnsatz(n, 1),
                                             non_clifford};
    EXPECT_THROW(engine.energies(population), std::invalid_argument);
}

TEST(ParallelDeterminism, UncachedBatchesDrawFreshSamples)
{
    // An engine with no cache attached promises fresh Monte-Carlo
    // samples per evaluation: a circuit re-submitted in a later batch
    // must see new trajectory noise, not a replay of the first batch's
    // streams.
    const int n = 10;
    const auto ham = heisenbergHamiltonian(n, 1.0);
    const std::vector<Circuit> batch = {cliffordAnsatz(n, 4)};

    const EstimationConfig config =
        EstimationConfig::tableau(testSpec(), 24, 8);
    EstimationEngine engine(ham, config);
    ASSERT_FALSE(engine.cachingEnabled());
    const double first = engine.energies(batch)[0];
    const double second = engine.energies(batch)[0];
    EXPECT_NE(first, second);

    // With the cache on, the same re-submission is a pure lookup.
    EstimationEngine cached(ham, config);
    cached.attachSharedCache(std::make_shared<SharedEnergyCache>(8), 0);
    const double c1 = cached.energies(batch)[0];
    const double c2 = cached.energies(batch)[0];
    EXPECT_EQ(c1, c2);
}

TEST(ParallelDeterminism, EnergyCacheCollapsesDuplicates)
{
    const int n = 8;
    const auto ham = isingHamiltonian(n, 1.0);
    const Circuit a = cliffordAnsatz(n, 1);
    const Circuit b = cliffordAnsatz(n, 2);

    EstimationEngine engine(ham,
                            EstimationConfig::tableau(testSpec(), 24, 9));
    engine.attachSharedCache(std::make_shared<SharedEnergyCache>(16), 0);

    // a appears 3x, b 2x: one evaluation each, rest collapsed.
    const std::vector<Circuit> population = {a, b, a, a, b};
    const auto energies = engine.energies(population);
    EXPECT_EQ(engine.cacheMisses(), 2u);
    EXPECT_EQ(energies[0], energies[2]);
    EXPECT_EQ(energies[0], energies[4 - 1]); // a at index 3
    EXPECT_EQ(energies[1], energies[4]);

    // A second pass over the same population is all cache hits.
    const auto again = engine.energies(population);
    EXPECT_EQ(engine.cacheMisses(), 2u);
    EXPECT_GT(engine.cacheHits(), 0u);
    for (size_t i = 0; i < population.size(); ++i)
        EXPECT_EQ(energies[i], again[i]);

    // Single-circuit path shares the same cache.
    EXPECT_EQ(engine.energy(a), energies[0]);
}

TEST(ParallelDeterminism, CacheEvictsLeastRecentlyUsed)
{
    const int n = 6;
    const auto ham = isingHamiltonian(n, 1.0);
    EstimationEngine engine(ham, EstimationConfig::tableau(testSpec(), 8, 3));
    engine.attachSharedCache(std::make_shared<SharedEnergyCache>(2), 0);

    const Circuit a = cliffordAnsatz(n, 1);
    const Circuit b = cliffordAnsatz(n, 2);
    const Circuit c = cliffordAnsatz(n, 3);
    engine.energy(a); // miss {a}
    engine.energy(b); // miss {b a}
    engine.energy(a); // hit  {a b}
    engine.energy(c); // miss {c a}, evicts b
    EXPECT_EQ(engine.cacheMisses(), 3u);
    EXPECT_EQ(engine.cacheHits(), 1u);
    engine.energy(b); // must re-evaluate: evicted
    EXPECT_EQ(engine.cacheMisses(), 4u);
}

TEST(ParallelDeterminism, GaPopulationWithDuplicateGenomesHitsCache)
{
    // Tiny genome space (4^2 = 16) with a larger population: duplicate
    // genomes are guaranteed, and every duplicate must be served from
    // the cache rather than re-simulated.
    const int n = 4;
    const auto ham = isingHamiltonian(n, 1.0);
    Circuit ansatz(static_cast<size_t>(n));
    ansatz.ryParam(0, 0);
    ansatz.cx(0, 1);
    ansatz.cx(1, 2);
    ansatz.cx(2, 3);
    ansatz.ryParam(3, 1);

    EstimationEngine engine(ham,
                            EstimationConfig::tableau(testSpec(), 16, 21));
    engine.attachSharedCache(std::make_shared<SharedEnergyCache>(64), 0);

    GeneticConfig ga;
    ga.population = 12;
    ga.generations = 4;
    ga.elite = 2;
    ga.seed = 5;
    DiscreteBatchObjectiveFn objective =
        [&](const std::vector<std::vector<int>> &pop) {
            std::vector<Circuit> bound;
            bound.reserve(pop.size());
            for (const auto &angles : pop)
                bound.push_back(ansatz.bind(cliffordAngles(angles)));
            return engine.energies(bound);
        };
    const DiscreteResult result =
        geneticMinimizeBatch(objective, ansatz.nParameters(), 4, ga);

    // 16 possible genomes, 12 + 4*10 = 52 evaluations requested. Each
    // genome is simulated at most once (misses <= 16): within-batch
    // duplicates collapse in the dedupe step, and genomes recurring
    // across generations must come back as cache hits.
    EXPECT_EQ(result.evaluations, 52u);
    EXPECT_LE(engine.cacheMisses(), 16u);
    EXPECT_GT(engine.cacheHits(), 0u);
}

TEST(ParallelDeterminism, BatchGaMatchesScalarGa)
{
    // With a deterministic objective, the batched GA must walk the
    // exact evolution path of the original one-at-a-time GA. The
    // expected values below were produced by the pre-refactor scalar
    // implementation (commit b80340c) on this exact objective/config —
    // geneticMinimize is now a wrapper over geneticMinimizeBatch, so
    // pinning literals (not an A/B run) is what actually guards the
    // RNG-stream equivalence.
    DiscreteObjectiveFn scalar = [](const std::vector<int> &x) {
        double total = 0.0;
        for (size_t i = 0; i < x.size(); ++i)
            total += std::abs(x[i] - 2) * static_cast<double>(i + 1);
        return total;
    };
    DiscreteBatchObjectiveFn batch =
        [&scalar](const std::vector<std::vector<int>> &pop) {
            std::vector<double> vals;
            for (const auto &ind : pop)
                vals.push_back(scalar(ind));
            return vals;
        };
    GeneticConfig config;
    config.population = 10;
    config.generations = 8;
    config.seed = 31;
    const std::vector<int> expected_params = {1, 1, 2, 1, 2, 2};
    const auto a = geneticMinimize(scalar, 6, 4, config);
    const auto b = geneticMinimizeBatch(batch, 6, 4, config);
    for (const auto &r : {a, b}) {
        EXPECT_EQ(r.best_params, expected_params);
        EXPECT_DOUBLE_EQ(r.best_value, 7.0);
        EXPECT_EQ(r.evaluations, 58u);
    }
}

TEST(ParallelDeterminism, ContentHashDistinguishesCircuits)
{
    Circuit a(3), b(3);
    a.h(0);
    a.cx(0, 1);
    a.rz(2, 0.5);
    b.h(0);
    b.cx(0, 1);
    b.rz(2, 0.5);
    EXPECT_EQ(a.contentHash(), b.contentHash());

    b.truncateGates(2);
    EXPECT_NE(a.contentHash(), b.contentHash());
    b.rz(2, 0.5000001); // angle bits differ -> different key
    EXPECT_NE(a.contentHash(), b.contentHash());

    Circuit wide(4);
    wide.h(0);
    wide.cx(0, 1);
    wide.rz(2, 0.5);
    EXPECT_NE(a.contentHash(), wide.contentHash());
}

TEST(ParallelDeterminism, TruncateGatesRewindsToPrefix)
{
    Circuit c(2);
    c.h(0);
    c.cx(0, 1);
    const uint64_t prefix_hash = c.contentHash();
    c.reserveGates(8);
    c.h(1);
    c.h(1);
    EXPECT_EQ(c.nGates(), 4u);
    c.truncateGates(2);
    EXPECT_EQ(c.nGates(), 2u);
    EXPECT_EQ(c.contentHash(), prefix_hash);
    c.truncateGates(5); // longer than the circuit: no-op
    EXPECT_EQ(c.nGates(), 2u);
}
