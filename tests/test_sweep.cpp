/**
 * @file
 * The sweep layer (vqa/sweep.hpp): axis validation naming the
 * offending field (including the max_cells guard), grid expansion
 * order and content keys, async-cell determinism against the serial
 * cell order at several OpenMP thread counts, cross-cell cache reuse
 * with pinned hit counters, the cell store's bit-identical
 * round-trip, and the resume contract (rerunning against a partial
 * store re-executes only the missing cells and appends nothing for
 * the cells it carries).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>

#include "ansatz/ansatz.hpp"
#include "ham/heisenberg.hpp"
#include "ham/ising.hpp"
#include "noise/noise_model.hpp"
#include "store/sink.hpp"
#include "vqa/sweep.hpp"

#include "omp_team.hpp"

using namespace eftvqa;

namespace {

/** Small grid over tiny noisy-tableau cells. */
SweepSpec
smallSweep()
{
    SweepSpec sweep;
    sweep.name = "test-sweep";
    sweep.families = {HamFamily::Ising};
    sweep.sizes = {4};
    sweep.couplings = {1.0};
    sweep.ansatz = [](int n) { return fcheAnsatz(n, 1); };
    sweep.regimes = {RegimeSpec::nisqTableau(6, 17).named("noisy")};
    return sweep;
}

/** Bound Clifford circuit whose angles derive from @p seed only (so
 *  sweep cells and hand-rolled loops bind identical circuits). */
Circuit
boundClifford(const Circuit &ansatz, uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> params(ansatz.nParameters());
    for (auto &p : params)
        p = static_cast<double>(rng.uniformInt(4)) * M_PI / 2.0;
    return ansatz.bind(params);
}

/** Cell function: three noisy-tableau population energies, summed into
 *  the row (pure per cell — the determinism tests' workload). */
SweepRow
energiesCellFn(const SweepCell &cell, ExperimentSession &session)
{
    const auto &regime = session.spec().regime("noisy");
    std::vector<Circuit> population;
    for (uint64_t s = 0; s < 3; ++s)
        population.push_back(boundClifford(
            session.spec().ansatz,
            static_cast<uint64_t>(cell.point.qubits) * 1000 +
                static_cast<uint64_t>(cell.point.coupling * 100.0) + s));
    const auto energies = session.energies(regime, population);
    SweepRow row;
    row.set("family", hamFamilyName(cell.point.family));
    row.set("qubits", cell.point.qubits);
    row.set("j", cell.point.coupling);
    for (size_t i = 0; i < energies.size(); ++i)
        row.set("e" + std::to_string(i), energies[i]);
    return row;
}

std::string
tempPath(const std::string &name)
{
    const std::string path = ::testing::TempDir() + name;
    std::remove(path.c_str());
    return path;
}

void
expectMentions(const std::invalid_argument &e, const std::string &needle)
{
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "error '" << e.what() << "' does not mention '" << needle
        << "'";
}

} // namespace

// --------------------------------------------------------------------
// Validation and the cell-count guard
// --------------------------------------------------------------------

TEST(SweepSpec, ValidationNamesTheOffendingAxis)
{
    auto expect_field = [](SweepSpec spec, const std::string &field) {
        try {
            spec.validate();
            FAIL() << "expected " << field << " to be rejected";
        } catch (const std::invalid_argument &e) {
            expectMentions(e, field);
        }
    };

    SweepSpec spec = smallSweep();
    spec.name.clear();
    expect_field(spec, "SweepSpec.name");

    spec = smallSweep();
    spec.ansatz = nullptr;
    expect_field(spec, "SweepSpec.ansatz");

    spec = smallSweep();
    spec.families.clear();
    expect_field(spec, "SweepSpec.families");

    spec = smallSweep();
    spec.sizes.clear();
    expect_field(spec, "SweepSpec.sizes");

    spec = smallSweep();
    spec.sizes = {4, -2};
    expect_field(spec, "SweepSpec.sizes");

    spec = smallSweep();
    spec.couplings.clear();
    expect_field(spec, "SweepSpec.couplings");

    spec = smallSweep();
    spec.families = {HamFamily::Molecule};
    expect_field(spec, "SweepSpec.molecules");

    spec = smallSweep();
    spec.max_cells = 0;
    expect_field(spec, "SweepSpec.max_cells");

    // Worker counts stop at kMaxWorkers, and the error names it. Only
    // validated here: no pool is ever started at these counts.
    const std::string limit = std::to_string(kMaxWorkers);
    spec = smallSweep();
    spec.cell_workers = kMaxWorkers + 1;
    expect_field(spec, "SweepSpec.cell_workers");
    expect_field(spec, limit);
    spec = smallSweep();
    spec.executor_threads = 1000000;
    expect_field(spec, "SweepSpec.executor_threads");
    expect_field(spec, limit);
    spec = smallSweep();
    spec.fault_policy = FaultPolicy::isolate;
    spec.isolation = IsolationMode::process;
    spec.process_workers = kMaxWorkers + 1;
    expect_field(spec, "SweepSpec.process_workers");
    expect_field(spec, limit);
    spec.process_workers = kMaxWorkers;
    spec.cell_workers = kMaxWorkers;
    spec.executor_threads = kMaxWorkers;
    EXPECT_NO_THROW(spec.validate());
}

TEST(SweepSpec, CellCapGuardNamesTheExpandedCount)
{
    SweepSpec spec = smallSweep();
    spec.sizes = {4, 6, 8};
    spec.couplings = {0.25, 0.5, 1.0};
    spec.max_cells = 8; // 1 family x 3 sizes x 3 couplings = 9 > 8
    try {
        spec.validate();
        FAIL() << "expected the cell cap to reject the grid";
    } catch (const std::invalid_argument &e) {
        expectMentions(e, "SweepSpec.max_cells");
        expectMentions(e, "9 cells");
    }
    spec.max_cells = 9;
    EXPECT_NO_THROW(spec.validate());
}

TEST(SweepSpec, CellErrorsArePrefixedWithTheCellLabel)
{
    SweepSpec spec = smallSweep();
    // Duplicate regime names are an ExperimentSpec-level error; the
    // sweep must say which cell tripped it.
    spec.regimes = {RegimeSpec::nisqTableau(6).named("dup"),
                    RegimeSpec::pqecTableau(6).named("dup")};
    try {
        spec.cells();
        FAIL() << "expected the duplicate regime name to be rejected";
    } catch (const std::invalid_argument &e) {
        expectMentions(e, "SweepSpec cell 'ising/n4/j1'");
        expectMentions(e, "duplicate regime name");
    }
}

// --------------------------------------------------------------------
// Expansion: order, labels, keys
// --------------------------------------------------------------------

TEST(SweepSpec, ExpansionFollowsFamilySizeCouplingOrder)
{
    SweepSpec spec = smallSweep();
    spec.families = {HamFamily::Ising, HamFamily::Heisenberg};
    spec.sizes = {4, 6};
    spec.couplings = {0.5, 1.0};
    const auto cells = spec.cells();
    ASSERT_EQ(cells.size(), 8u);
    EXPECT_EQ(cells[0].label, "ising/n4/j0.5");
    EXPECT_EQ(cells[1].label, "ising/n4/j1");
    EXPECT_EQ(cells[2].label, "ising/n6/j0.5");
    EXPECT_EQ(cells[5].label, "heisenberg/n4/j1");
    EXPECT_EQ(cells[7].label, "heisenberg/n6/j1");
    for (size_t i = 0; i < cells.size(); ++i) {
        EXPECT_EQ(cells[i].point.index, i);
        EXPECT_EQ(cells[i].experiment.hamiltonian.nQubits(),
                  static_cast<size_t>(cells[i].point.qubits));
        for (size_t k = i + 1; k < cells.size(); ++k)
            EXPECT_NE(cells[i].key(), cells[k].key())
                << cells[i].label << " vs " << cells[k].label;
    }
}

TEST(SweepSpec, MoleculeCellsExpandOverTheMoleculeList)
{
    SweepSpec spec = smallSweep();
    spec.families = {HamFamily::Molecule};
    spec.molecules = {MoleculeSpec{Molecule::LiH, 1.0, 4},
                      MoleculeSpec{Molecule::LiH, 4.5, 4}};
    const auto cells = spec.cells();
    ASSERT_EQ(cells.size(), 2u);
    EXPECT_EQ(cells[0].label.rfind("molecule/LiH", 0), 0u);
    EXPECT_EQ(cells[0].point.qubits, 4);
    EXPECT_EQ(cells[0].point.coupling, 1.0);
    EXPECT_EQ(cells[1].point.coupling, 4.5);
    EXPECT_NE(cells[0].key(), cells[1].key());
    EXPECT_GT(cells[0].experiment.hamiltonian.nTerms(), 0u);
}

TEST(SweepSpec, CellKeyIsContentNotGridPosition)
{
    // The same (family, n, j) point must key identically whether it is
    // the only cell or one of many — that is what lets a partial
    // sweep's store resume a larger one.
    SweepSpec subset = smallSweep();
    subset.sizes = {5};
    SweepSpec full = smallSweep();
    full.sizes = {4, 5};
    const auto sub_cells = subset.cells();
    const auto full_cells = full.cells();
    ASSERT_EQ(sub_cells.size(), 1u);
    ASSERT_EQ(full_cells.size(), 2u);
    EXPECT_EQ(sub_cells[0].key(), full_cells[1].key());
    EXPECT_NE(full_cells[0].key(), full_cells[1].key());

    // Per-cell overrides are part of the identity: a different GA seed
    // computes different rows, so it must change the key.
    SweepSpec seeded = smallSweep();
    seeded.customize = [](const SweepPoint &, ExperimentSpec &e) {
        e.genetic.seed = 999;
    };
    EXPECT_NE(seeded.cells()[0].key(), smallSweep().cells()[0].key());

    // Driver-level knobs outside the spec (optimizer budgets captured
    // in the cell function) reach the key through key_salt — a store
    // written under one --smoke/--full budget must not resume another.
    SweepSpec salted = smallSweep();
    salted.key_salt = 60;
    EXPECT_NE(salted.cells()[0].key(), smallSweep().cells()[0].key());
}

TEST(SweepSpec, CellKeyCarriesCachingOnOffNotCapacity)
{
    // Without a cache a cell draws fresh trajectory samples per
    // evaluation, so its rows differ from a caching run's and a store
    // must not resume one with the other. Any capacity > 0 computes
    // identical rows, so only the on/off bit is keyed.
    auto key_at = [](size_t capacity) {
        SweepSpec spec = smallSweep();
        spec.cache_capacity = capacity;
        return spec.cells()[0].key();
    };
    EXPECT_NE(key_at(0), key_at(4096));
    EXPECT_EQ(key_at(16), key_at(4096));
}

// --------------------------------------------------------------------
// Determinism: async cells == serial cell order
// --------------------------------------------------------------------

TEST(SweepRunner, AsyncCellsMatchSerialOrderAtAnyThreadCount)
{
    SweepSpec base = smallSweep();
    base.families = {HamFamily::Ising, HamFamily::Heisenberg};
    base.sizes = {4, 5};
    base.couplings = {0.5, 1.0};

    // Serial reference: one worker, whatever OMP width is ambient.
    SweepSpec serial = base;
    serial.cell_workers = 1;
    const SweepReport reference =
        SweepRunner(std::move(serial)).run(energiesCellFn);
    ASSERT_EQ(reference.rows.size(), 8u);

    for (const int threads : omp_team::sizes()) {
        omp_team::Guard team(threads);
        SweepSpec async = base;
        async.cell_workers = 4;
        const SweepReport report =
            SweepRunner(std::move(async)).run(energiesCellFn);
        ASSERT_EQ(report.rows.size(), reference.rows.size());
        for (size_t i = 0; i < report.rows.size(); ++i)
            EXPECT_TRUE(report.rows[i] == reference.rows[i])
                << "cell " << i << " at " << threads << " OMP threads";
    }
}

TEST(SweepRunner, CrossCellCacheHitCountersArePinned)
{
    // Two identical cells (the coupling axis lists 1.0 twice), serial:
    // the second cell's three lookups must all hit what the first
    // inserted — cache scope is (Hamiltonian, regime, circuit) content,
    // with no per-cell identity in the key.
    SweepSpec spec = smallSweep();
    spec.couplings = {1.0, 1.0};
    spec.cell_workers = 1;
    SweepRunner runner(std::move(spec));
    const SweepReport cold = runner.run(energiesCellFn);
    ASSERT_EQ(cold.rows.size(), 2u);
    EXPECT_EQ(cold.cache_misses, 3u);
    EXPECT_EQ(cold.cache_hits, 3u);
    EXPECT_TRUE(cold.rows[0] == cold.rows[1]);

    // A second run() re-executes every cell through fresh sessions
    // against the surviving sweep cache: pure hits, identical rows.
    const SweepReport warm = runner.run(energiesCellFn);
    EXPECT_EQ(warm.cache_misses, 0u);
    EXPECT_EQ(warm.cache_hits, 6u);
    for (size_t i = 0; i < 2; ++i)
        EXPECT_TRUE(warm.rows[i] == cold.rows[i]);
}

TEST(SweepRunner, MatchesHandRolledSessionLoop)
{
    // Migration-equivalence pin: the sweep must reproduce the exact
    // values of the pre-sweep driver shape — one hand-built
    // ExperimentSession per (family, n, j), evaluated in loop order.
    SweepSpec spec = smallSweep();
    spec.sizes = {4, 5};
    spec.couplings = {0.5, 1.0};
    const SweepReport report =
        SweepRunner(std::move(spec)).run(energiesCellFn);

    size_t r = 0;
    for (const int n : {4, 5}) {
        for (const double j : {0.5, 1.0}) {
            ExperimentSpec cell_spec;
            cell_spec.hamiltonian = isingHamiltonian(n, j);
            cell_spec.ansatz = fcheAnsatz(n, 1);
            cell_spec.regimes = {
                RegimeSpec::nisqTableau(6, 17).named("noisy")};
            ExperimentSession session(std::move(cell_spec));
            std::vector<Circuit> population;
            for (uint64_t s = 0; s < 3; ++s)
                population.push_back(boundClifford(
                    session.spec().ansatz,
                    static_cast<uint64_t>(n) * 1000 +
                        static_cast<uint64_t>(j * 100.0) + s));
            const auto energies = session.energies(
                session.spec().regime("noisy"), population);
            for (size_t i = 0; i < energies.size(); ++i)
                EXPECT_EQ(report.rows[r].num("e" + std::to_string(i)),
                          energies[i])
                    << "n=" << n << " j=" << j << " circuit " << i;
            ++r;
        }
    }
    ASSERT_EQ(r, report.rows.size());
}

TEST(SweepRunner, CellErrorsPropagate)
{
    SweepRunner runner(smallSweep());
    EXPECT_THROW(
        runner.run([](const SweepCell &, ExperimentSession &) -> SweepRow {
            throw std::runtime_error("cell boom");
        }),
        std::runtime_error);
}

TEST(SweepRunner, ZeroCacheCapacityRunsWithoutACache)
{
    // cache_capacity = 0 is a valid sweep: no sweep-level cache is
    // built, every cell's session runs uncached, and no lookup is
    // counted.
    SweepSpec spec = smallSweep();
    spec.couplings = {1.0, 1.0};
    spec.cache_capacity = 0;
    spec.cell_workers = 1;
    SweepRunner runner(std::move(spec));
    EXPECT_EQ(runner.cache(), nullptr);
    const SweepReport report = runner.run(energiesCellFn);
    ASSERT_EQ(report.rows.size(), 2u);
    EXPECT_EQ(report.executed, 2u);
    EXPECT_EQ(report.cache_hits, 0u);
    EXPECT_EQ(report.cache_misses, 0u);
}

TEST(SweepRunner, ExternalCacheRequiresCacheCapacity)
{
    // The session-side contract the runner relies on: attaching an
    // external cache to a spec that does not cache is a named-field
    // error (the session would ignore the cache).
    ExperimentSpec spec;
    spec.hamiltonian = isingHamiltonian(3, 1.0);
    spec.ansatz = fcheAnsatz(3, 1);
    spec.cache_capacity = 0;
    try {
        ExperimentSession session(
            std::move(spec), std::make_shared<SharedEnergyCache>(16));
        FAIL() << "expected cache_capacity > 0 to be required";
    } catch (const std::invalid_argument &e) {
        expectMentions(e, "ExperimentSpec.cache_capacity");
    }
}

// --------------------------------------------------------------------
// The cell store sink: round trip and resume
// --------------------------------------------------------------------

TEST(SweepSink, JsonStoreRoundTripsRowsBitIdentically)
{
    const std::string path = tempPath("sweep_roundtrip.store");
    SweepRunner runner(smallSweep());

    SweepRow crafted;
    crafted.set("family", "ising");
    crafted.set("qubits", 4);
    crafted.set("tiny", 1.0e-17);
    crafted.set("third", 1.0 / 3.0);
    crafted.set("huge", -3.5e300);
    crafted.set("whole", 16.0); // integral double must stay a double
    crafted.set("ok", true);

    {
        store::BinarySweepSink sink(path, "test-sweep");
        EXPECT_EQ(sink.loadedCells(), 0u);
        const SweepReport report = runner.run(
            [&crafted](const SweepCell &, ExperimentSession &) {
                return crafted;
            },
            &sink);
        EXPECT_EQ(report.executed, 1u);
    }

    store::BinarySweepSink reloaded(path, "test-sweep");
    EXPECT_EQ(reloaded.loadedCells(), 1u);
    ASSERT_TRUE(reloaded.contains(runner.cells()[0]));
    const SweepRow stored = reloaded.storedRow(runner.cells()[0]);
    EXPECT_TRUE(stored == crafted);
    std::remove(path.c_str());
}

TEST(SweepSink, ResumeExecutesOnlyMissingCells)
{
    const std::string path = tempPath("sweep_resume.store");

    // Pass 1: the n=4 subset fills the store with one cell.
    SweepSpec subset = smallSweep();
    subset.cell_workers = 1;
    SweepReport first;
    {
        store::BinarySweepSink sink(path, "test-sweep");
        first = SweepRunner(std::move(subset)).run(energiesCellFn, &sink);
        EXPECT_EQ(first.executed, 1u);
        EXPECT_EQ(first.skipped, 0u);
    }

    // Pass 2: the {4, 5} grid against the partial store — only the
    // n=5 cell may execute, and the carried n=4 row must come back
    // bit-identical.
    SweepSpec full = smallSweep();
    full.sizes = {4, 5};
    full.cell_workers = 1;
    SweepReport second;
    {
        store::BinarySweepSink sink(path, "test-sweep");
        EXPECT_EQ(sink.loadedCells(), 1u);
        second = SweepRunner(std::move(full)).run(energiesCellFn, &sink);
        EXPECT_EQ(second.executed, 1u);
        EXPECT_EQ(second.skipped, 1u);
        ASSERT_EQ(second.rows.size(), 2u);
        EXPECT_TRUE(second.rows[0] == first.rows[0]);
    }

    // Pass 3: rerunning the full grid is a no-op — every cell carried,
    // nothing appended, and the store file does not grow.
    SweepSpec again = smallSweep();
    again.sizes = {4, 5};
    again.cell_workers = 1;
    const auto size_before = std::filesystem::file_size(path);
    {
        store::BinarySweepSink sink(path, "test-sweep");
        EXPECT_EQ(sink.loadedCells(), 2u);
        const SweepReport third =
            SweepRunner(std::move(again)).run(energiesCellFn, &sink);
        EXPECT_EQ(third.executed, 0u);
        EXPECT_EQ(third.skipped, 2u);
        for (size_t i = 0; i < 2; ++i)
            EXPECT_TRUE(third.rows[i] == second.rows[i]);
        EXPECT_EQ(sink.underlyingStore().stats().appends, 0u);
    }
    EXPECT_EQ(std::filesystem::file_size(path), size_before);
    std::remove(path.c_str());
}

TEST(SweepSink, ReservedFieldNamesAreRejected)
{
    const std::string path = tempPath("sweep_reserved.store");
    SweepRunner runner(smallSweep());
    store::BinarySweepSink sink(path, "test-sweep");
    EXPECT_THROW(runner.run(
                     [](const SweepCell &, ExperimentSession &) {
                         SweepRow row;
                         row.set("key", "clash");
                         return row;
                     },
                     &sink),
                 std::invalid_argument);
    std::remove(path.c_str());
}
