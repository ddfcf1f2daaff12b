/**
 * @file
 * The experiment-session layer (vqa/experiment.hpp): spec presets and
 * validation, regime keying, the shared cross-engine energy cache
 * (counter-pinned), async submit() bit-identity against the serial
 * engine path at several OpenMP thread counts, the shot path's
 * thread-count invariance, and migration
 * equivalence of the session entry points against the pre-session
 * engine wiring.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <future>

#include "ansatz/ansatz.hpp"
#include "ham/heisenberg.hpp"
#include "ham/ising.hpp"
#include "noise/noise_model.hpp"
#include "vqa/experiment.hpp"

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

ExperimentSpec
smallSpec(int n, std::vector<RegimeSpec> regimes)
{
    ExperimentSpec spec;
    spec.hamiltonian = isingHamiltonian(n, 1.0);
    spec.ansatz = fcheAnsatz(n, 1);
    spec.regimes = std::move(regimes);
    return spec;
}

} // namespace

// --------------------------------------------------------------------
// Spec presets and validation
// --------------------------------------------------------------------

TEST(RegimeSpec, PresetsRoundTripThroughSpecLookup)
{
    const auto spec = ExperimentSpec::nisqVsPqecDensityMatrix(
        isingHamiltonian(4, 1.0), fcheAnsatz(4, 1));
    ASSERT_EQ(spec.regimes.size(), 3u);
    EXPECT_TRUE(spec.hasRegime("ideal"));
    EXPECT_TRUE(spec.hasRegime("nisq"));
    EXPECT_TRUE(spec.hasRegime("pqec"));
    EXPECT_FALSE(spec.hasRegime("bogus"));
    EXPECT_THROW(spec.regime("bogus"), std::invalid_argument);

    // The presets lower to the same engine configs the legacy
    // EstimationConfig factories produced.
    const auto &nisq = spec.regime("nisq");
    EXPECT_EQ(nisq.backend, sim::BackendKind::DensityMatrix);
    ASSERT_TRUE(nisq.noise.has_value());
    EXPECT_TRUE(nisq.noise->hasDmNoise());
    const EstimationConfig lowered = nisq.estimationConfig();
    const EstimationConfig legacy =
        EstimationConfig::densityMatrix(sim::NoiseModel::nisq(NisqParams{}));
    EXPECT_EQ(lowered.backend, legacy.backend);
    EXPECT_EQ(lowered.noise->dm.meas_flip, legacy.noise->dm.meas_flip);
    EXPECT_EQ(lowered.shots, legacy.shots);
    EXPECT_EQ(lowered.seed, legacy.seed);

    const auto tab = ExperimentSpec::nisqVsPqecTableau(
        isingHamiltonian(4, 1.0), fcheAnsatz(4, 1), 32, GeneticConfig{});
    const EstimationConfig tab_lowered =
        tab.regime("pqec").estimationConfig();
    const EstimationConfig tab_legacy = EstimationConfig::tableau(
        pqecCliffordSpec(PqecParams{}), 32, 0x5EEDC11FF0ull);
    EXPECT_EQ(tab_lowered.backend, sim::BackendKind::Tableau);
    EXPECT_EQ(tab_lowered.noise->trajectories,
              tab_legacy.noise->trajectories);
    EXPECT_EQ(tab_lowered.noise->clifford.rotation.pz,
              tab_legacy.noise->clifford.rotation.pz);
}

TEST(RegimeSpec, KeyHashesKnobsButNotName)
{
    const auto a = RegimeSpec::nisqTableau(64, 7);
    EXPECT_EQ(a.key(), RegimeSpec::nisqTableau(64, 7).key());
    // The display name is a label, not an identity.
    EXPECT_EQ(a.key(), a.named("something-else").key());
    // Every statistics knob is identity.
    EXPECT_NE(a.key(), RegimeSpec::nisqTableau(65, 7).key());
    EXPECT_NE(a.key(), RegimeSpec::nisqTableau(64, 8).key());
    EXPECT_NE(a.key(), RegimeSpec::pqecTableau(64, 7).key());
    RegimeSpec shots = a;
    shots.shots = 100;
    EXPECT_NE(a.key(), shots.key());
    EXPECT_NE(RegimeSpec::ideal().key(), RegimeSpec::idealTableau().key());
}

TEST(RegimeSpec, DensityMatrixKeysCarryTheKernelTag)
{
    // Captured before the DmPass stream: tableau and ideal keys (the
    // fig12/fig14, daemon and store keys) never move with the
    // density-matrix kernels.
    EXPECT_EQ(RegimeSpec::nisqTableau(64, 7).key(), 0x49900b8c68417818ull);
    EXPECT_EQ(RegimeSpec::ideal().key(), 0x329019bde1392148ull);
    // Noisy density-matrix keys fold kNoisyDmKernelVersion, so stores
    // of the gate-by-gate generation never resume into the stream's.
    EXPECT_NE(RegimeSpec::nisqDensityMatrix().key(), 0x414bc8cb35774291ull);
    EXPECT_NE(RegimeSpec::pqecDensityMatrix().key(), 0xeead6603c3707a88ull);
    // The tag is the last mix, so the noisy keys kept their values when
    // the noiseless density matrix moved onto the stream and took the
    // tag as well; its own key left the compiled-op generation's.
    EXPECT_EQ(RegimeSpec::nisqDensityMatrix().key(), 0x6b08c44bd9a61fc9ull);
    RegimeSpec noiseless;
    noiseless.name = "density-matrix";
    noiseless.backend = sim::BackendKind::DensityMatrix;
    EXPECT_EQ(noiseless.key(), 0x2e88ad0c054db538ull);
    EXPECT_NE(noiseless.key(), 0xbe6a7172329fa9eaull);
}

TEST(Validation, ErrorsNameTheOffendingField)
{
    EstimationConfig bad_shots;
    bad_shots.shots = -5;
    try {
        EstimationEngine engine(isingHamiltonian(2, 1.0), bad_shots);
        FAIL() << "negative shots must throw";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("EstimationConfig.shots"),
                  std::string::npos);
    }

    GeneticConfig ga;
    ga.population = 0;
    EXPECT_THROW(ga.validate(), std::invalid_argument);
    ga = GeneticConfig{};
    ga.generations = 0;
    try {
        ga.validate();
        FAIL() << "zero generations must throw";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("GeneticConfig.generations"),
                  std::string::npos);
    }
    ga = GeneticConfig{};
    ga.mutation_rate = 1.5;
    EXPECT_THROW(ga.validate(), std::invalid_argument);

    // Zero capacity is not an error: the session runs without a cache
    // and evaluates exactly what a caching session does.
    auto spec = smallSpec(3, {RegimeSpec::ideal()});
    spec.cache_capacity = 0;
    ExperimentSession uncached(std::move(spec));
    EXPECT_EQ(uncached.cache(), nullptr);
    EXPECT_FALSE(uncached.engine("ideal").cachingEnabled());
    ExperimentSession cached(smallSpec(3, {RegimeSpec::ideal()}));
    const Circuit bound = cliffordAnsatz(3, 7);
    EXPECT_EQ(uncached.energy(uncached.spec().regime("ideal"), bound),
              cached.energy(cached.spec().regime("ideal"), bound));

    // Width mismatch and duplicate names.
    ExperimentSpec mismatch;
    mismatch.hamiltonian = isingHamiltonian(3, 1.0);
    mismatch.ansatz = fcheAnsatz(4, 1);
    EXPECT_THROW(mismatch.validate(), std::invalid_argument);
    auto dup = smallSpec(
        3, {RegimeSpec::ideal(), RegimeSpec::nisqDensityMatrix().named(
                                     "ideal")});
    EXPECT_THROW(dup.validate(), std::invalid_argument);

    RegimeSpec neg;
    neg.trajectories = -1;
    EXPECT_THROW(neg.validate(), std::invalid_argument);

    // An executor thread count past kMaxWorkers fails validation, which
    // names the field and the limit; no session (and no pool) is built.
    auto wide = smallSpec(3, {RegimeSpec::ideal()});
    wide.executor_threads = kMaxWorkers + 1;
    try {
        wide.validate();
        FAIL() << "executor_threads past the limit must throw";
    } catch (const std::invalid_argument &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("ExperimentSpec.executor_threads"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find(std::to_string(kMaxWorkers)), std::string::npos)
            << what;
    }
    wide.executor_threads = kMaxWorkers;
    EXPECT_NO_THROW(wide.validate());
}

// --------------------------------------------------------------------
// Shared cross-engine cache
// --------------------------------------------------------------------

TEST(ExperimentSession, CacheHitsCarryAcrossEngineRebuilds)
{
    const int n = 6;
    auto spec = smallSpec(
        n, {RegimeSpec::nisqTableau(8, 21).named("noisy")});
    ExperimentSession session(std::move(spec));
    const RegimeSpec regime = session.spec().regime("noisy");

    std::vector<Circuit> population;
    for (uint64_t s = 0; s < 4; ++s)
        population.push_back(cliffordAnsatz(n, s));

    const auto cold = session.energies(regime, population);
    ASSERT_NE(session.cache(), nullptr);
    EXPECT_EQ(session.cache()->misses(), 4u);
    EXPECT_EQ(session.cache()->hits(), 0u);
    EXPECT_EQ(session.engineCount(), 1u);

    // Drop every engine; the session cache survives, so a freshly
    // built engine for the same regime must serve the whole population
    // from it — this is the cross-engine reuse ROADMAP asked for.
    session.resetEngines();
    EXPECT_EQ(session.engineCount(), 0u);
    const auto warm = session.energies(regime, population);
    EXPECT_EQ(session.engineCount(), 1u);
    EXPECT_EQ(session.cache()->hits(), 4u);
    EXPECT_EQ(session.cache()->misses(), 4u);
    for (size_t i = 0; i < cold.size(); ++i)
        EXPECT_EQ(cold[i], warm[i]);
}

TEST(ExperimentSession, CacheIsScopedPerRegime)
{
    const int n = 6;
    auto spec = smallSpec(n, {RegimeSpec::nisqTableau(8, 5),
                              RegimeSpec::pqecTableau(8, 5)});
    ExperimentSession session(std::move(spec));
    const Circuit bound = cliffordAnsatz(n, 3);

    const double e_nisq =
        session.energy(session.spec().regime("nisq"), bound);
    // Same circuit under the other regime: a scoping bug would hit the
    // NISQ entry and return the wrong regime's energy.
    const double e_pqec =
        session.energy(session.spec().regime("pqec"), bound);
    EXPECT_EQ(session.cache()->hits(), 0u);
    EXPECT_EQ(session.cache()->misses(), 2u);
    EXPECT_NE(e_nisq, e_pqec); // pQEC noise is orders quieter
    EXPECT_EQ(session.engineCount(), 2u);

    // Re-evaluations hit their own scopes.
    EXPECT_EQ(session.energy(session.spec().regime("nisq"), bound),
              e_nisq);
    EXPECT_EQ(session.energy(session.spec().regime("pqec"), bound),
              e_pqec);
    EXPECT_EQ(session.cache()->hits(), 2u);
}

TEST(ExperimentSession, SharedCacheMatchesPrivateCacheValues)
{
    // The hoisted cache must not change what an engine computes: same
    // regime, same circuits — session values == standalone-engine
    // values (which PR2 pinned against the serial reference).
    const int n = 8;
    const auto ham = heisenbergHamiltonian(n, 1.0);
    std::vector<Circuit> population;
    for (uint64_t s = 0; s < 3; ++s)
        population.push_back(cliffordAnsatz(n, 40 + s));

    EstimationEngine engine(ham,
                            EstimationConfig::tableau(testSpec(), 12, 77));
    engine.attachSharedCache(std::make_shared<SharedEnergyCache>(8), 0);
    const auto expected = engine.energies(population);

    ExperimentSpec spec;
    spec.hamiltonian = ham;
    spec.ansatz = fcheAnsatz(n, 1);
    RegimeSpec regime;
    regime.name = "noisy";
    regime.backend = sim::BackendKind::Tableau;
    sim::NoiseModel noise;
    noise.clifford = testSpec();
    noise.trajectories = 12;
    noise.seed = 77;
    regime.noise = noise;
    spec.regimes = {regime};
    ExperimentSession session(std::move(spec));
    const auto actual = session.energies(regime, population);
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < actual.size(); ++i)
        EXPECT_EQ(actual[i], expected[i]);
}

TEST(ExperimentSession, CacheEntriesEqualReEvaluationAfterRebuild)
{
    // Purity contract: with caching on, a cache entry that outlives an
    // engine rebuild must equal what the rebuilt engine would compute
    // from scratch — for the shot path (hash-seeded streams) and the
    // Monte-Carlo exact path (frozen-parent clones) alike. Clearing
    // the cache forces the genuine re-evaluation.
    const int n = 5;
    auto spec = smallSpec(n, {});
    RegimeSpec shots;
    shots.name = "shots";
    shots.backend = sim::BackendKind::Statevector;
    shots.shots = 32;
    shots.seed = 5;
    spec.regimes = {shots};
    ExperimentSession session(std::move(spec));
    const Circuit bound = cliffordAnsatz(n, 14);

    const double cached = session.energy(shots, bound);
    session.resetEngines();
    session.cache()->clear();
    EXPECT_EQ(session.energy(shots, bound), cached);

    const RegimeSpec mc = RegimeSpec::nisqTableau(6, 23).named("mc");
    const double mc_cached = session.energy(mc, bound);
    session.resetEngines();
    session.cache()->clear();
    EXPECT_EQ(session.energy(mc, bound), mc_cached);

    RegimeSpec mc_shots = RegimeSpec::nisqTableau(4, 23).named("mcs");
    mc_shots.shots = 8;
    const double mcs_cached = session.energy(mc_shots, bound);
    session.resetEngines();
    session.cache()->clear();
    EXPECT_EQ(session.energy(mc_shots, bound), mcs_cached);
}

// --------------------------------------------------------------------
// Async submit: bit-identity vs the serial engine path
// --------------------------------------------------------------------

TEST(ExperimentSession, SubmitMatchesSerialEnginePathAtAnyThreadCount)
{
    const int n = 6;
    const auto ham = isingHamiltonian(n, 1.0);

    // Three regime shapes: exact statevector shots, noisy-tableau
    // exact, noisy-tableau + shots (the clone-scheduling path).
    std::vector<RegimeSpec> regimes;
    {
        RegimeSpec sv;
        sv.name = "sv-shots";
        sv.backend = sim::BackendKind::Statevector;
        sv.shots = 64;
        sv.seed = 404;
        regimes.push_back(sv);
        RegimeSpec tab = RegimeSpec::nisqTableau(8, 11).named("tab");
        regimes.push_back(tab);
        RegimeSpec tab_shots =
            RegimeSpec::nisqTableau(4, 11).named("tab-shots");
        tab_shots.shots = 16;
        tab_shots.seed = 90;
        regimes.push_back(tab_shots);
    }

    std::vector<Circuit> circuits;
    for (uint64_t s = 0; s < 4; ++s)
        circuits.push_back(cliffordAnsatz(n, 60 + s));

    for (const RegimeSpec &regime : regimes) {
        // Serial reference: a standalone engine (no session, caching
        // off so every evaluation runs) fed the same call sequence.
        std::vector<double> reference;
        {
            EstimationEngine engine(ham, regime.estimationConfig());
            for (const Circuit &c : circuits)
                reference.push_back(engine.energy(c));
        }

        for (const int threads : omp_team::sizes()) {
            omp_team::Guard team(threads);
            // Fresh session per thread count: same submission sequence
            // must reproduce the serial reference bit for bit.
            ExperimentSpec spec;
            spec.hamiltonian = ham;
            spec.ansatz = fcheAnsatz(n, 1);
            spec.regimes = {regime};
            spec.cache_capacity = 0; // every submit really evaluates
            spec.executor_threads = 2;
            ExperimentSession session(std::move(spec));
            std::vector<std::future<double>> futures;
            for (const Circuit &c : circuits)
                futures.push_back(session.submit(regime, c));
            for (size_t i = 0; i < futures.size(); ++i)
                EXPECT_EQ(futures[i].get(), reference[i])
                    << regime.name << " circuit " << i << " at "
                    << threads << " threads";
        }
    }
}

TEST(ExperimentSession, SubmitPopulationMatchesEnergies)
{
    const int n = 6;
    auto spec =
        smallSpec(n, {RegimeSpec::nisqTableau(8, 13).named("noisy")});
    ExperimentSession session(std::move(spec));
    const RegimeSpec regime = session.spec().regime("noisy");
    std::vector<Circuit> population;
    for (uint64_t s = 0; s < 5; ++s)
        population.push_back(cliffordAnsatz(n, 80 + s % 3)); // dups too

    const auto direct = session.energies(regime, population);
    auto future = session.submit(regime, population);
    const auto async = future.get();
    ASSERT_EQ(async.size(), direct.size());
    for (size_t i = 0; i < async.size(); ++i)
        EXPECT_EQ(async[i], direct[i]);
}

TEST(ExperimentSession, BatchShotPathIsThreadCountInvariant)
{
    // Population evaluation of a shot-based regime: the circuit-level
    // fan-out, each circuit sweeping its groups, against a team of one.
    const int n = 6;
    const auto ham = isingHamiltonian(n, 1.0);
    std::vector<Circuit> population;
    for (uint64_t s = 0; s < 6; ++s)
        population.push_back(cliffordAnsatz(n, 200 + s));

    RegimeSpec regime;
    regime.name = "shots";
    regime.backend = sim::BackendKind::Statevector;
    regime.shots = 32;
    regime.seed = 61;

    omp_team::expectSameBits([&] {
        EstimationEngine engine(ham, regime.estimationConfig());
        return engine.energies(population);
    });
}

TEST(ExperimentSession, ShotGroupsAreThreadCountInvariant)
{
    // One energy() at a time: the QWC groups run as one serial sweep
    // over their hash-seeded streams, and on the Monte-Carlo substrate
    // each group's clone runs the trajectory farm, so the team size
    // reaches the groups only through that farm. Successive rounds
    // draw fresh per-evaluation bases from the engine stream.
    const int n = 6;
    const auto ham = heisenbergHamiltonian(n, 1.0);
    const Circuit bound = cliffordAnsatz(n, 9);

    EstimationConfig sv;
    sv.backend = sim::BackendKind::Statevector;
    sv.shots = 128;
    sv.seed = 777;
    EstimationConfig mc = EstimationConfig::tableau(testSpec(), 4, 31);
    mc.shots = 12;
    for (const EstimationConfig &config : {sv, mc}) {
        SCOPED_TRACE(sim::backendKindName(config.backend));
        omp_team::expectSameBits([&] {
            EstimationEngine engine(ham, config);
            std::vector<double> energies;
            for (int round = 0; round < 3; ++round)
                energies.push_back(engine.energy(bound));
            return energies;
        });
    }
}

// --------------------------------------------------------------------
// Migration equivalence: session entry points vs pre-session wiring
// --------------------------------------------------------------------

TEST(ExperimentSession, CliffordVqeMatchesPreSessionEnginePath)
{
    const int n = 6;
    const auto ham = isingHamiltonian(n, 1.0);
    const auto ansatz = fcheAnsatz(n, 1);
    GeneticConfig config;
    config.population = 6;
    config.generations = 3;
    config.seed = 91;
    const size_t trajectories = 6;

    // The pre-session wiring of runCliffordVqe(), inlined: GA engine
    // with a private cache and the derived trajectory seed, ideal
    // engine for the winner's noiseless energy.
    DiscreteResult legacy_opt;
    double legacy_ideal = 0.0;
    {
        EstimationEngine engine(
            ham, EstimationConfig::tableau(testSpec(), trajectories,
                                           config.seed ^ 0xA5A5A5A5ull));
        engine.attachSharedCache(
            std::make_shared<SharedEnergyCache>(4 * config.population), 0);
        auto objective =
            [&engine, &ansatz](const std::vector<std::vector<int>> &pop) {
                std::vector<Circuit> bound;
                bound.reserve(pop.size());
                for (const auto &angles : pop)
                    bound.push_back(ansatz.bind(cliffordAngles(angles)));
                return engine.energies(bound);
            };
        legacy_opt = geneticMinimizeBatch(objective, ansatz.nParameters(),
                                          4, config);
        EstimationEngine ideal(
            ham, EstimationConfig::tableau(CliffordNoiseSpec::ideal(), 1,
                                           config.seed));
        legacy_ideal = ideal.energy(
            ansatz.bind(cliffordAngles(legacy_opt.best_params)));
    }

    ExperimentSpec spec;
    spec.hamiltonian = ham;
    spec.ansatz = ansatz;
    spec.genetic = config;
    ExperimentSession session(std::move(spec));
    RegimeSpec regime;
    regime.name = "noisy";
    regime.backend = sim::BackendKind::Tableau;
    sim::NoiseModel noise;
    noise.clifford = testSpec();
    noise.trajectories = trajectories;
    regime.noise = noise;
    const CliffordVqeResult result = session.cliffordVqe(regime);

    EXPECT_EQ(result.energy, legacy_opt.best_value);
    EXPECT_EQ(result.angles, legacy_opt.best_params);
    EXPECT_EQ(result.evaluations, legacy_opt.evaluations);
    EXPECT_EQ(result.ideal_energy, legacy_ideal);
}

TEST(ExperimentSession, MinimizeMatchesPreSessionEnginePath)
{
    // fig13-style continuous path: session.minimize must walk the
    // exact optimizer trajectory of runVqe over a fresh engine.
    const int n = 4;
    const auto ham = isingHamiltonian(n, 1.0);
    const auto ansatz = fcheAnsatz(n, 1);
    NelderMeadOptimizer opt(0.6);
    const size_t evals = 60;
    const auto noise = sim::NoiseModel::nisq(NisqParams{});

    EstimationEngine legacy_engine(ham,
                                   EstimationConfig::densityMatrix(noise));
    const VqeResult legacy = runVqe(ansatz, legacy_engine.evaluator(),
                                    opt, std::vector<double>(), evals);

    ExperimentSession session(
        ExperimentSpec::nisqVsPqecDensityMatrix(ham, ansatz));
    const VqeResult viaSession =
        session.minimize(session.spec().regime("nisq"), opt,
                         std::vector<double>(), evals);
    EXPECT_EQ(viaSession.energy, legacy.energy);
    EXPECT_EQ(viaSession.params, legacy.params);
    EXPECT_EQ(viaSession.history, legacy.history);
}

TEST(ExperimentSession, CompareRegimesMatchesEngineWiring)
{
    const int n = 6;
    const auto ham = isingHamiltonian(n, 1.0);
    const Circuit bound_a = cliffordAnsatz(n, 1);
    const Circuit bound_b = cliffordAnsatz(n, 2);
    const double e0 = -10.0;

    // The pre-session wiring, inlined: one caller-built engine per
    // regime, gamma assembled by hand.
    EstimationEngine engine_a(
        ham, EstimationConfig::tableau(pqecCliffordSpec(PqecParams{}),
                                       16, 312));
    EstimationEngine engine_b(
        ham, EstimationConfig::tableau(nisqCliffordSpec(NisqParams{}),
                                       16, 311));
    RegimeComparison legacy;
    legacy.energy_a = engine_a.energy(bound_a);
    legacy.energy_b = engine_b.energy(bound_b);
    legacy.gamma = relativeImprovement(e0, legacy.energy_a,
                                       legacy.energy_b, 0.01);

    ExperimentSpec spec;
    spec.hamiltonian = ham;
    spec.ansatz = fcheAnsatz(n, 1);
    spec.regimes = {RegimeSpec::pqecTableau(16, 312).named("a-eval"),
                    RegimeSpec::nisqTableau(16, 311).named("b-eval")};
    ExperimentSession session(std::move(spec));
    const RegimeComparison via_session = compareRegimes(
        session, session.spec().regime("a-eval"), bound_a,
        session.spec().regime("b-eval"), bound_b, e0, 0.01);
    EXPECT_EQ(via_session.energy_a, legacy.energy_a);
    EXPECT_EQ(via_session.energy_b, legacy.energy_b);
    EXPECT_EQ(via_session.gamma, legacy.gamma);
}

TEST(ExperimentSession, SessionEvaluatorOwnsItsSession)
{
    const auto ham = isingHamiltonian(4, 0.5);
    EnergyEvaluator eval = sessionEvaluator(ham, RegimeSpec::ideal());
    Circuit c(4);
    c.rx(0, 1.1);
    EstimationEngine reference(ham, EstimationConfig{});
    EXPECT_DOUBLE_EQ(eval(c), reference.energy(c));
    EXPECT_DOUBLE_EQ(eval(c), reference.energy(c)); // cached second hit
}

TEST(ExperimentSession, EngineMemoizationIsKeyedByRegimeContent)
{
    const int n = 4;
    auto spec = smallSpec(n, {});
    ExperimentSession session(std::move(spec));
    // Ad-hoc regimes (not listed in the spec) are fine; equal keys
    // share one engine, renames don't split it.
    const auto a = RegimeSpec::nisqTableau(16, 3);
    session.engine(a);
    session.engine(a.named("alias"));
    EXPECT_EQ(session.engineCount(), 1u);
    session.engine(RegimeSpec::nisqTableau(17, 3));
    EXPECT_EQ(session.engineCount(), 2u);
}
