/**
 * @file
 * The fault-tolerance layer (vqa/fault.hpp + the sweep runner's
 * FaultPolicy::isolate mode): the error taxonomy and classifier, the
 * cooperative CancelToken, the seeded FaultInjector's determinism and
 * counters, structured dense-backend allocation failures, the
 * WorkerPool error hook and destruction stress, per-cell quarantine /
 * retry / timeout containment in SweepRunner, the checksummed store's
 * handling of rotted and torn records (counted, never trusted, their
 * cells re-executed), and the bit-identity contract: under isolate
 * with retries, surviving cells' rows are byte-identical to a
 * fault-free run.
 *
 * Every suite name carries "Fault" so the CI fault-matrix job can
 * sweep EFTVQA_FAULTS seeds through `ctest -R Fault`.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "ansatz/ansatz.hpp"
#include "ham/ising.hpp"
#include "noise/noise_model.hpp"
#include "sim/compiled_circuit.hpp"
#include "sim/density_matrix.hpp"
#include "sim/statevector.hpp"
#include "store/sink.hpp"
#include "vqa/executor.hpp"
#include "vqa/fault.hpp"
#include "vqa/sweep.hpp"

using namespace eftvqa;

namespace {

/** Disarm the process-wide injector on scope exit, so a failing
 *  assertion cannot leak an armed plan into the next test. */
struct InjectorGuard
{
    ~InjectorGuard() { FaultInjector::instance().disarm(); }
};

/** Small serial sweep over tiny noisy-tableau cells. */
SweepSpec
faultSweep(std::vector<double> couplings)
{
    SweepSpec sweep;
    sweep.name = "fault-sweep";
    sweep.families = {HamFamily::Ising};
    sweep.sizes = {4};
    sweep.couplings = std::move(couplings);
    sweep.ansatz = [](int n) { return fcheAnsatz(n, 1); };
    sweep.regimes = {RegimeSpec::nisqTableau(6, 17).named("noisy")};
    sweep.cell_workers = 1; // serial: probe hit order is the cell order
    return sweep;
}

Circuit
boundClifford(const Circuit &ansatz, uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> params(ansatz.nParameters());
    for (auto &p : params)
        p = static_cast<double>(rng.uniformInt(4)) * M_PI / 2.0;
    return ansatz.bind(params);
}

/** Pure cell function: one noisy energy into the row. */
SweepRow
pureCellFn(const SweepCell &cell, ExperimentSession &session)
{
    const auto &regime = session.spec().regime("noisy");
    const std::vector<Circuit> population = {boundClifford(
        session.spec().ansatz,
        static_cast<uint64_t>(cell.point.coupling * 100.0) + 3)};
    const auto energies = session.energies(regime, population);
    SweepRow row;
    row.set("j", cell.point.coupling);
    row.set("e0", energies[0]);
    return row;
}

std::string
tempPath(const std::string &name)
{
    const std::string path = ::testing::TempDir() + name;
    std::remove(path.c_str());
    return path;
}

/** The store's cell lines (the checksummed per-cell objects), in
 *  first-seen order. */
std::vector<std::string>
cellLines(const std::string &path)
{
    std::vector<std::string> lines;
    for (const storefmt::StoreCell &cell :
         store::SweepStore(path, store::SweepStore::Mode::read_only)
             .cells())
        lines.push_back(cell.line);
    return lines;
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(is)),
                       std::istreambuf_iterator<char>());
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << bytes;
}

} // namespace

// --------------------------------------------------------------------
// FaultInjector: determinism, counters, injection kinds
// --------------------------------------------------------------------

TEST(FaultInjector, SeededPlanReplaysIdentically)
{
    InjectorGuard guard;
    const auto pattern = [](uint64_t seed) {
        FaultInjector::instance().arm(
            seed, {FaultSpec{"test.point", FaultKind::Throw, 0.5}});
        std::string bits;
        for (int i = 0; i < 64; ++i) {
            try {
                faultProbe("test.point");
                bits.push_back('0');
            } catch (const InjectedFault &) {
                bits.push_back('1');
            }
        }
        FaultInjector::instance().disarm();
        return bits;
    };
    const std::string a = pattern(7);
    EXPECT_EQ(a, pattern(7)); // same seed, same decisions
    EXPECT_NE(a, pattern(8)); // a different stream decides differently
    EXPECT_NE(a.find('0'), std::string::npos);
    EXPECT_NE(a.find('1'), std::string::npos);
}

TEST(FaultInjector, SkipAndMaxInjectionsBoundTheWindow)
{
    InjectorGuard guard;
    FaultSpec spec;
    spec.point = "test.window";
    spec.kind = FaultKind::Throw;
    spec.skip = 2;
    spec.max_injections = 2;
    FaultInjector::instance().arm(1, {spec});

    std::string bits;
    for (int i = 0; i < 6; ++i) {
        try {
            faultProbe("test.window");
            bits.push_back('0');
        } catch (const InjectedFault &) {
            bits.push_back('1');
        }
    }
    EXPECT_EQ(bits, "001100"); // hits 3 and 4 inject, nothing else
    EXPECT_EQ(FaultInjector::instance().hits("test.window"), 6u);
    EXPECT_EQ(FaultInjector::instance().injected("test.window"), 2u);
    EXPECT_EQ(FaultInjector::instance().totalHits(), 6u);
}

TEST(FaultInjector, DelayAndBadAllocKinds)
{
    InjectorGuard guard;
    FaultSpec delay;
    delay.point = "test.delay";
    delay.kind = FaultKind::Delay;
    delay.delay_ms = 5.0;
    delay.max_injections = 1;
    FaultSpec alloc;
    alloc.point = "test.alloc";
    alloc.kind = FaultKind::BadAlloc;
    alloc.max_injections = 1;
    FaultInjector::instance().arm(3, {delay, alloc});

    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_NO_THROW(faultProbe("test.delay")); // delays, never throws
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    EXPECT_GE(elapsed_ms, 4.0);
    EXPECT_NO_THROW(faultProbe("test.delay")); // max_injections spent
    EXPECT_EQ(FaultInjector::instance().injected("test.delay"), 1u);

    EXPECT_THROW(faultProbe("test.alloc"), std::bad_alloc);
    EXPECT_NO_THROW(faultProbe("test.alloc"));
}

TEST(FaultInjector, DisarmedProbesAreInert)
{
    FaultInjector::instance().disarm();
    EXPECT_FALSE(FaultInjector::instance().armed());
    EXPECT_NO_THROW(faultProbe("test.inert"));
    EXPECT_EQ(FaultInjector::instance().totalHits(), 0u);
}

TEST(FaultInjector, EnvSeedParsesDecimalAndHex)
{
    ::unsetenv("EFTVQA_FAULTS");
    EXPECT_FALSE(FaultInjector::envSeed().has_value());
    ::setenv("EFTVQA_FAULTS", "123", 1);
    EXPECT_EQ(FaultInjector::envSeed().value_or(0), 123u);
    ::setenv("EFTVQA_FAULTS", "0x2a", 1);
    EXPECT_EQ(FaultInjector::envSeed().value_or(0), 42u);
    ::setenv("EFTVQA_FAULTS", "bogus", 1);
    EXPECT_FALSE(FaultInjector::envSeed().has_value());
    ::unsetenv("EFTVQA_FAULTS");
}

TEST(FaultRetry, BackoffIsDeterministicAndBounded)
{
    EXPECT_EQ(retryBackoffMs(42, 1, 0.0), 0.0); // no base, no sleep
    const double first = retryBackoffMs(42, 1, 10.0);
    EXPECT_EQ(first, retryBackoffMs(42, 1, 10.0)); // replayable
    EXPECT_GE(first, 5.0);                         // 10ms x [0.5, 1.5)
    EXPECT_LT(first, 15.0);
    const double second = retryBackoffMs(42, 2, 10.0);
    EXPECT_GE(second, 10.0); // doubled base, same jitter window
    EXPECT_LT(second, 30.0);
    // Deep attempts saturate at the cap instead of overflowing.
    EXPECT_EQ(retryBackoffMs(42, 40, 10.0, 2000.0), 2000.0);
}

// --------------------------------------------------------------------
// Error taxonomy, classification, cancellation
// --------------------------------------------------------------------

TEST(FaultClassify, MapsTheTaxonomyOntoCategories)
{
    const auto classify = [](auto thrower) {
        try {
            thrower();
        } catch (...) {
            return classifyCurrentException();
        }
        return ClassifiedError{};
    };
    EXPECT_EQ(classify([] { throw TimeoutError(10.0, 5.0); }).category,
              ErrorCategory::timeout);
    EXPECT_EQ(classify([] { throw CancelledError(); }).category,
              ErrorCategory::cancelled);
    EXPECT_EQ(classify([] { throw ResourceError("X", 4, 256); }).category,
              ErrorCategory::resource);
    EXPECT_EQ(classify([] { throw std::bad_alloc(); }).category,
              ErrorCategory::resource);
    EXPECT_EQ(classify([] { throw std::invalid_argument("bad"); }).category,
              ErrorCategory::invalid_argument);
    EXPECT_EQ(classify([] { throw std::runtime_error("boom"); }).category,
              ErrorCategory::runtime);
    EXPECT_EQ(classify([] { throw 42; }).category, ErrorCategory::unknown);
    EXPECT_EQ(classify([] { throw std::runtime_error("boom"); }).what,
              "boom");
    EXPECT_STREQ(errorCategoryName(ErrorCategory::timeout), "timeout");
}

TEST(FaultCancelToken, CancelAndDeadlineTripAtCheckpoints)
{
    CancelToken cancelled;
    EXPECT_NO_THROW(cancelled.checkpoint());
    cancelled.cancel();
    EXPECT_TRUE(cancelled.cancelled());
    EXPECT_THROW(cancelled.checkpoint(), CancelledError);

    CancelToken deadline;
    EXPECT_FALSE(deadline.hasDeadline());
    deadline.setDeadline(5.0);
    EXPECT_TRUE(deadline.hasDeadline());
    EXPECT_EQ(deadline.limitMs(), 5.0);
    while (!deadline.expired())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    try {
        deadline.checkpoint();
        FAIL() << "expected the expired deadline to throw";
    } catch (const TimeoutError &e) {
        EXPECT_EQ(e.limitMs(), 5.0);
        EXPECT_GT(e.elapsedMs(), 5.0);
    }
}

TEST(FaultResource, InjectedBadAllocBecomesStructuredResourceError)
{
    InjectorGuard guard;
    FaultSpec spec;
    spec.point = "alloc.backend";
    spec.kind = FaultKind::BadAlloc;
    spec.max_injections = 1;

    FaultInjector::instance().arm(1, {spec});
    try {
        Statevector sv(4);
        FAIL() << "expected the injected bad_alloc to surface";
    } catch (const ResourceError &e) {
        EXPECT_EQ(e.qubits(), 4u);
        EXPECT_EQ(e.bytes(), 16u * sizeof(std::complex<double>));
        EXPECT_NE(std::string(e.what()).find("Statevector"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("4 qubits"),
                  std::string::npos);
    }
    EXPECT_NO_THROW(Statevector(4)); // budget spent, allocs recover

    FaultInjector::instance().arm(2, {spec});
    try {
        DensityMatrix dm(3);
        FAIL() << "expected the injected bad_alloc to surface";
    } catch (const ResourceError &e) {
        EXPECT_EQ(e.qubits(), 3u);
        EXPECT_EQ(e.bytes(), 64u * sizeof(std::complex<double>));
        EXPECT_NE(std::string(e.what()).find("DensityMatrix"),
                  std::string::npos);
    }
}

// --------------------------------------------------------------------
// WorkerPool: throwing jobs never terminate, destruction stress
// --------------------------------------------------------------------

TEST(FaultWorkerPool, ThrowingJobsRouteToTheHandler)
{
    std::atomic<int> ran{0};
    std::atomic<int> errors{0};
    WorkerPool pool(4);
    pool.setErrorHandler([&](std::exception_ptr) { ++errors; });
    for (int i = 0; i < 90; ++i)
        pool.enqueue([&ran, i] {
            ++ran;
            if (i % 3 == 0)
                throw std::runtime_error("job boom");
        });
    pool.waitIdle();
    EXPECT_EQ(ran.load(), 90);
    EXPECT_EQ(errors.load(), 30);
    EXPECT_EQ(pool.firstError(), nullptr); // the hook consumed them
}

TEST(FaultWorkerPool, FirstErrorStashedWithoutHandler)
{
    WorkerPool pool(2);
    pool.enqueue([] { throw std::runtime_error("stashed boom"); });
    pool.waitIdle();
    const std::exception_ptr error = pool.firstError();
    ASSERT_NE(error, nullptr);
    try {
        std::rethrow_exception(error);
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "stashed boom");
    }
}

TEST(FaultWorkerPool, DestructionAndWaitIdleStressLosesNoJob)
{
    // The historical hazard: a waitIdle()/destructor racing busy
    // workers and late producers could miss the idle wakeup or strand
    // queued jobs. Hammer that window: producer threads enqueue bursts
    // (some jobs throwing, some slow) while the owner thread calls
    // waitIdle() concurrently, then the pool is destroyed with work
    // still in flight. Every job must run exactly once.
    constexpr int kRounds = 12;
    constexpr int kProducers = 3;
    constexpr int kJobsPerProducer = 40;
    for (int round = 0; round < kRounds; ++round) {
        std::atomic<int> ran{0};
        std::atomic<int> errors{0};
        {
            WorkerPool pool(4);
            pool.setErrorHandler([&](std::exception_ptr) { ++errors; });
            std::vector<std::thread> producers;
            for (int p = 0; p < kProducers; ++p)
                producers.emplace_back([&pool, &ran, p] {
                    for (int i = 0; i < kJobsPerProducer; ++i)
                        pool.enqueue([&ran, p, i] {
                            if ((p + i) % 7 == 0)
                                std::this_thread::sleep_for(
                                    std::chrono::microseconds(200));
                            ++ran;
                            if ((p + i) % 5 == 0)
                                throw std::runtime_error("stress boom");
                        });
                });
            pool.waitIdle(); // races the producers, must not hang
            for (std::thread &t : producers)
                t.join();
            // Destructor runs with jobs possibly still queued/busy.
        }
        EXPECT_EQ(ran.load(), kProducers * kJobsPerProducer)
            << "round " << round;
        EXPECT_GT(errors.load(), 0) << "round " << round;
    }
}

// --------------------------------------------------------------------
// SweepRunner: isolate-mode containment
// --------------------------------------------------------------------

TEST(FaultPolicySpec, ValidationNamesTheFaultFields)
{
    const auto expect_mentions = [](SweepSpec spec,
                                    const std::string &needle) {
        try {
            spec.validate();
            FAIL() << "expected '" << needle << "' to be rejected";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(needle),
                      std::string::npos)
                << e.what();
        }
    };
    SweepSpec spec = faultSweep({1.0});
    spec.cell_attempts = 0;
    expect_mentions(spec, "SweepSpec.cell_attempts");

    spec = faultSweep({1.0});
    spec.cell_attempts = 2; // retries without isolate
    expect_mentions(spec, "isolate");

    spec = faultSweep({1.0});
    spec.retry_backoff_ms = -1.0;
    expect_mentions(spec, "SweepSpec.retry_backoff_ms");

    spec = faultSweep({1.0});
    spec.cell_timeout_ms = -1.0;
    expect_mentions(spec, "SweepSpec.cell_timeout_ms");

    EXPECT_STREQ(faultPolicyName(FaultPolicy::fail_fast), "fail_fast");
    EXPECT_STREQ(faultPolicyName(FaultPolicy::isolate), "isolate");
}

TEST(FaultSweep, QuarantineRowRoundTripsTheOutcome)
{
    CellOutcome outcome;
    outcome.ok = false;
    outcome.category = ErrorCategory::timeout;
    outcome.error = "soft deadline of 50 ms exceeded";
    outcome.attempts = 3;
    outcome.elapsed_ms = 12.5;
    const SweepRow row = quarantineRowFor(outcome);
    EXPECT_TRUE(row.flag("quarantined"));
    const CellOutcome back = outcomeFromQuarantineRow(row);
    EXPECT_FALSE(back.ok);
    EXPECT_EQ(back.category, ErrorCategory::timeout);
    EXPECT_EQ(back.error, outcome.error);
    EXPECT_EQ(back.attempts, 3u);
    EXPECT_EQ(back.elapsed_ms, 12.5);
}

TEST(FaultSweep, IsolateQuarantinesOnlyTheFailingCell)
{
    const auto flaky = [](const SweepCell &cell,
                          ExperimentSession &session) -> SweepRow {
        if (cell.point.coupling == 0.5)
            throw std::runtime_error("cell boom at j=0.5");
        return pureCellFn(cell, session);
    };

    // fail_fast (the default) preserves the historical throw.
    EXPECT_THROW(
        SweepRunner(faultSweep({0.25, 0.5, 1.0})).run(flaky),
        std::runtime_error);

    const SweepReport reference =
        SweepRunner(faultSweep({0.25, 1.0})).run(pureCellFn);

    SweepSpec spec = faultSweep({0.25, 0.5, 1.0});
    spec.fault_policy = FaultPolicy::isolate;
    const SweepReport report = SweepRunner(std::move(spec)).run(flaky);
    EXPECT_EQ(report.cells, 3u);
    EXPECT_EQ(report.executed, 3u);
    EXPECT_EQ(report.failed, 1u);
    EXPECT_EQ(report.retries, 0u);
    ASSERT_EQ(report.outcomes.size(), 3u);
    EXPECT_TRUE(report.outcomes[0].ok);
    EXPECT_FALSE(report.outcomes[1].ok);
    EXPECT_TRUE(report.outcomes[2].ok);
    EXPECT_EQ(report.outcomes[1].category, ErrorCategory::runtime);
    EXPECT_NE(report.outcomes[1].error.find("cell boom"),
              std::string::npos);
    EXPECT_EQ(report.outcomes[1].attempts, 1u);
    EXPECT_GE(report.outcomes[1].elapsed_ms, 0.0);
    // The failed slot carries the marker; healthy cells match a
    // fault-free run bit-for-bit (the containment contract).
    EXPECT_TRUE(report.rows[1].flag("quarantined"));
    EXPECT_TRUE(report.rows[0] == reference.rows[0]);
    EXPECT_TRUE(report.rows[2] == reference.rows[1]);
}

TEST(FaultSweep, RetriedCellRowsAreBitIdenticalToFaultFree)
{
    InjectorGuard guard;
    const SweepReport reference =
        SweepRunner(faultSweep({0.25, 0.5, 1.0})).run(pureCellFn);

    // Serial cells: cell.start hit #2 is cell 1's first attempt.
    FaultSpec spec;
    spec.point = "cell.start";
    spec.kind = FaultKind::Throw;
    spec.skip = 1;
    spec.max_injections = 1;
    FaultInjector::instance().arm(11, {spec});

    SweepSpec sweep = faultSweep({0.25, 0.5, 1.0});
    sweep.fault_policy = FaultPolicy::isolate;
    sweep.cell_attempts = 2;
    sweep.retry_backoff_ms = 1.0; // exercise the deterministic sleep
    const SweepReport report = SweepRunner(std::move(sweep)).run(pureCellFn);
    FaultInjector::instance().disarm();

    EXPECT_EQ(report.failed, 0u);
    EXPECT_EQ(report.retries, 1u);
    ASSERT_EQ(report.outcomes.size(), 3u);
    EXPECT_EQ(report.outcomes[0].attempts, 1u);
    EXPECT_EQ(report.outcomes[1].attempts, 2u); // failed once, retried
    EXPECT_EQ(report.outcomes[2].attempts, 1u);
    for (size_t i = 0; i < 3; ++i)
        EXPECT_TRUE(report.rows[i] == reference.rows[i])
            << "cell " << i << " diverged after retry";
}

TEST(FaultSweep, TimeoutQuarantinesViaTheCancelToken)
{
    // The cell sleeps past its soft deadline between two engine
    // entries; the second entry's checkpoint must throw TimeoutError
    // — cooperative containment, no thread killing.
    const auto slow = [](const SweepCell &cell,
                         ExperimentSession &session) -> SweepRow {
        SweepRow row = pureCellFn(cell, session);
        std::this_thread::sleep_for(std::chrono::milliseconds(60));
        pureCellFn(cell, session); // trips the deadline checkpoint
        return row;
    };
    SweepSpec spec = faultSweep({1.0});
    spec.fault_policy = FaultPolicy::isolate;
    spec.cell_timeout_ms = 25.0;
    const SweepReport report = SweepRunner(std::move(spec)).run(slow);
    EXPECT_EQ(report.failed, 1u);
    ASSERT_EQ(report.outcomes.size(), 1u);
    EXPECT_FALSE(report.outcomes[0].ok);
    EXPECT_EQ(report.outcomes[0].category, ErrorCategory::timeout);
    EXPECT_TRUE(report.rows[0].flag("quarantined"));
    EXPECT_EQ(report.rows[0].str("category"), "timeout");

    // Without a deadline the same cell completes.
    SweepSpec open_spec = faultSweep({1.0});
    open_spec.fault_policy = FaultPolicy::isolate;
    const SweepReport open_report =
        SweepRunner(std::move(open_spec)).run(slow);
    EXPECT_EQ(open_report.failed, 0u);
}

TEST(FaultSweep, QuarantinedCellsSkipOnResumeUnlessRetryFailed)
{
    const std::string path = tempPath("fault_quarantine_resume.store");
    bool heal = false;
    const auto flaky = [&heal](const SweepCell &cell,
                               ExperimentSession &session) -> SweepRow {
        if (!heal && cell.point.coupling == 1.0)
            throw std::runtime_error("transient boom");
        return pureCellFn(cell, session);
    };

    SweepSpec spec = faultSweep({0.25, 1.0});
    spec.fault_policy = FaultPolicy::isolate;
    {
        store::BinarySweepSink sink(path, "fault-sweep");
        const SweepReport report =
            SweepRunner(std::move(spec)).run(flaky, &sink);
        EXPECT_EQ(report.failed, 1u);
        EXPECT_EQ(report.executed, 2u);
    }

    // The store now holds one healthy row and one quarantine marker.
    {
        store::BinarySweepSink sink(path, "fault-sweep");
        EXPECT_EQ(sink.loadedCells(), 2u);
        EXPECT_EQ(sink.quarantinedCells(), 1u);
        EXPECT_EQ(sink.corruptLines(), 0u);
    }

    // Resume without retry_failed: the marker is carried, nothing
    // re-executes — a poisoned cell cannot burn budget on every rerun.
    heal = true;
    SweepSpec carry = faultSweep({0.25, 1.0});
    carry.fault_policy = FaultPolicy::isolate;
    {
        store::BinarySweepSink sink(path, "fault-sweep");
        const SweepReport report =
            SweepRunner(std::move(carry)).run(flaky, &sink);
        EXPECT_EQ(report.executed, 0u);
        EXPECT_EQ(report.skipped, 2u);
        EXPECT_EQ(report.failed, 1u); // carried marker still reported
        EXPECT_FALSE(report.outcomes[1].ok);
        EXPECT_EQ(report.outcomes[1].category, ErrorCategory::runtime);
    }

    // retry_failed: exactly the quarantined cell re-executes, and the
    // healed row replaces the marker in the store.
    SweepSpec retry = faultSweep({0.25, 1.0});
    retry.fault_policy = FaultPolicy::isolate;
    retry.retry_failed = true;
    {
        store::BinarySweepSink sink(path, "fault-sweep");
        const SweepReport report =
            SweepRunner(std::move(retry)).run(flaky, &sink);
        EXPECT_EQ(report.executed, 1u);
        EXPECT_EQ(report.skipped, 1u);
        EXPECT_EQ(report.failed, 0u);
        EXPECT_FALSE(report.rows[1].has("quarantined"));
    }
    {
        store::BinarySweepSink sink(path, "fault-sweep");
        EXPECT_EQ(sink.quarantinedCells(), 0u);
        EXPECT_EQ(sink.loadedCells(), 2u);
    }
    std::remove(path.c_str());
}

// --------------------------------------------------------------------
// Checksummed store: rotted and torn records
// --------------------------------------------------------------------

TEST(FaultSink, CorruptedLineIsQuarantinedAndReExecuted)
{
    const std::string path = tempPath("fault_bitrot.store");
    const SweepReport reference = [&] {
        store::BinarySweepSink sink(path, "fault-sweep");
        return SweepRunner(faultSweep({0.25, 1.0}))
            .run(pureCellFn, &sink);
    }();

    // Flip one character of the second cell line's checksum inside a
    // cleanly closed store: its indexed record no longer verifies and
    // must be counted as corrupt, not served on resume.
    {
        std::string bytes = fileBytes(path);
        const size_t crc = bytes.rfind("\"crc\": \"0x");
        ASSERT_NE(crc, std::string::npos);
        const size_t digit = crc + 10;
        bytes[digit] = bytes[digit] == '0' ? '1' : '0';
        writeBytes(path, bytes);
    }

    {
        store::BinarySweepSink sink(path, "fault-sweep");
        EXPECT_EQ(sink.loadedCells(), 1u);
        EXPECT_EQ(sink.corruptLines(), 1u);

        // The resumed run re-executes exactly the rejected cell.
        const SweepReport report =
            SweepRunner(faultSweep({0.25, 1.0})).run(pureCellFn, &sink);
        EXPECT_EQ(report.executed, 1u);
        EXPECT_EQ(report.skipped, 1u);
        for (size_t i = 0; i < 2; ++i)
            EXPECT_TRUE(report.rows[i] == reference.rows[i]);
    }

    // The healed store exports byte-identically to a fault-free one.
    const std::string ref_path = tempPath("fault_bitrot_ref.store");
    {
        store::BinarySweepSink ref_sink(ref_path, "fault-sweep");
        SweepRunner(faultSweep({0.25, 1.0})).run(pureCellFn, &ref_sink);
    }
    const std::string healed_json = tempPath("fault_bitrot.json");
    const std::string ref_json = tempPath("fault_bitrot_ref.json");
    store::exportStoreToJson(path, healed_json);
    store::exportStoreToJson(ref_path, ref_json);
    EXPECT_EQ(fileBytes(healed_json), fileBytes(ref_json));
    for (const auto &p : {path, ref_path, healed_json, ref_json})
        std::remove(p.c_str());
}

TEST(FaultSink, TornFinalLineIsDroppedNotTrusted)
{
    const std::string path = tempPath("fault_torn.store");
    {
        store::BinarySweepSink sink(path, "fault-sweep");
        SweepRunner(faultSweep({0.25, 1.0})).run(pureCellFn, &sink);
    }

    // Tear the last cell record mid-line (as a writer dying mid-append
    // would) and drop everything after it, index segment included.
    {
        const std::string bytes = fileBytes(path);
        const size_t last = bytes.rfind("\"key\"");
        ASSERT_NE(last, std::string::npos);
        const size_t cut = bytes.find("\"crc\"", last);
        ASSERT_NE(cut, std::string::npos);
        writeBytes(path, bytes.substr(0, cut));
    }

    store::BinarySweepSink sink(path, "fault-sweep");
    EXPECT_EQ(sink.loadedCells(), 1u);
    EXPECT_EQ(sink.corruptLines(), 1u);
    const SweepReport report =
        SweepRunner(faultSweep({0.25, 1.0})).run(pureCellFn, &sink);
    EXPECT_EQ(report.executed, 1u);
    EXPECT_EQ(report.skipped, 1u);
    std::remove(path.c_str());
}

// --------------------------------------------------------------------
// End-to-end: the acceptance scenario and the seeded fault matrix
// --------------------------------------------------------------------

TEST(FaultMatrix, InjectedSweepQuarantinesRecoversAndMatchesByteForByte)
{
    InjectorGuard guard;
    const std::string path = tempPath("fault_matrix.store");
    const std::string ref_path = tempPath("fault_matrix_ref.store");

    // A fig12-style cell: an engine entry, a dense allocation, a
    // second engine entry — crossing cell.start, engine.energy and
    // alloc.backend every attempt.
    const auto cell_fn = [](const SweepCell &cell,
                            ExperimentSession &session) -> SweepRow {
        SweepRow row = pureCellFn(cell, session);
        Statevector sv(static_cast<size_t>(cell.point.qubits));
        pureCellFn(cell, session); // second serial engine entry
        return row;
    };

    const SweepReport reference = [&] {
        store::BinarySweepSink sink(ref_path, "fault-sweep");
        return SweepRunner(faultSweep({0.25, 0.5, 0.75, 1.0}))
            .run(cell_fn, &sink);
    }();

    // The acceptance plan: a delay long enough to trip the soft
    // deadline (cell 0, recovered by retry), a throw burning both
    // attempts of cell 1 (quarantined), and one bad_alloc (cell 2,
    // recovered by retry). Serial cells make the hit order the cell
    // order, so the windows below target exactly those cells. Note
    // the timed-out attempt dies *inside* its first evaluation (the
    // tableau trajectory loops poll the deadline), so cell 0 attempt
    // 1 never reaches the dense allocation — only its clean second
    // attempt crosses alloc.backend. The deadline must never trip a
    // clean attempt. On a 4-core host one takes a median of 0.1 ms
    // idle and 12 ms with two figure drivers running, with tails up to
    // about 45 ms while the trajectory farm's thread team waits for
    // cores; the deadline sits above 20x that tail and the delay at 3x
    // the deadline.
    FaultSpec delay;
    delay.point = "engine.energy";
    delay.kind = FaultKind::Delay;
    delay.delay_ms = 3000.0;
    delay.max_injections = 1;
    FaultSpec crash;
    crash.point = "cell.start";
    crash.kind = FaultKind::Throw;
    crash.skip = 2; // cell 0's two attempts pass
    crash.max_injections = 2;
    FaultSpec alloc;
    alloc.point = "alloc.backend";
    alloc.kind = FaultKind::BadAlloc;
    alloc.skip = 1; // cell 0's clean second attempt allocates fine
    alloc.max_injections = 1;

    const uint64_t seed = FaultInjector::envSeed().value_or(1);
    FaultInjector::instance().arm(seed, {delay, crash, alloc});

    SweepSpec sweep = faultSweep({0.25, 0.5, 0.75, 1.0});
    sweep.fault_policy = FaultPolicy::isolate;
    sweep.cell_attempts = 2;
    sweep.cell_timeout_ms = 1000.0;
    SweepReport report;
    {
        store::BinarySweepSink sink(path, "fault-sweep");
        report = SweepRunner(std::move(sweep)).run(cell_fn, &sink);
    }
    EXPECT_EQ(FaultInjector::instance().injected("engine.energy"), 1u);
    EXPECT_EQ(FaultInjector::instance().injected("cell.start"), 2u);
    EXPECT_EQ(FaultInjector::instance().injected("alloc.backend"), 1u);
    FaultInjector::instance().disarm();

    // Cells 0 and 2 recovered on their second attempt; cell 1 burned
    // both attempts and is quarantined; cell 3 was never touched.
    EXPECT_EQ(report.failed, 1u);
    EXPECT_EQ(report.retries, 3u);
    ASSERT_EQ(report.outcomes.size(), 4u);
    EXPECT_TRUE(report.outcomes[0].ok);
    EXPECT_EQ(report.outcomes[0].attempts, 2u); // timeout, then clean
    EXPECT_FALSE(report.outcomes[1].ok);
    EXPECT_EQ(report.outcomes[1].attempts, 2u);
    EXPECT_EQ(report.outcomes[1].category, ErrorCategory::runtime);
    EXPECT_TRUE(report.outcomes[2].ok);
    EXPECT_EQ(report.outcomes[2].attempts, 2u); // bad_alloc, then clean
    EXPECT_TRUE(report.outcomes[3].ok);
    EXPECT_EQ(report.outcomes[3].attempts, 1u);
    // The survivors' rows are bit-identical to the fault-free run even
    // though two of them went through failed attempts first.
    EXPECT_TRUE(report.rows[0] == reference.rows[0]);
    EXPECT_TRUE(report.rows[1].flag("quarantined"));
    EXPECT_TRUE(report.rows[2] == reference.rows[2]);
    EXPECT_TRUE(report.rows[3] == reference.rows[3]);

    // Resume with retry_failed, injector disarmed: exactly the
    // quarantined cell re-executes and the final store's cell lines
    // are byte-identical to the fault-free store.
    SweepSpec resume = faultSweep({0.25, 0.5, 0.75, 1.0});
    resume.fault_policy = FaultPolicy::isolate;
    resume.retry_failed = true;
    {
        store::BinarySweepSink sink(path, "fault-sweep");
        EXPECT_EQ(sink.quarantinedCells(), 1u);
        const SweepReport healed =
            SweepRunner(std::move(resume)).run(cell_fn, &sink);
        EXPECT_EQ(healed.executed, 1u);
        EXPECT_EQ(healed.skipped, 3u);
        EXPECT_EQ(healed.failed, 0u);
        for (size_t i = 0; i < 4; ++i)
            EXPECT_TRUE(healed.rows[i] == reference.rows[i]);
    }
    EXPECT_EQ(cellLines(path), cellLines(ref_path));
    std::remove(path.c_str());
    std::remove(ref_path.c_str());
}

TEST(FaultMatrix, SurvivorsStayBitIdenticalUnderSeededRandomInjection)
{
    // The CI fault-matrix contract, at whatever seed EFTVQA_FAULTS
    // carries: random throws at every probe point, bounded retries,
    // and still every surviving cell's row equals the fault-free run.
    InjectorGuard guard;
    const SweepReport reference =
        SweepRunner(faultSweep({0.25, 0.5, 0.75, 1.0})).run(pureCellFn);

    const uint64_t seed = FaultInjector::envSeed().value_or(1);
    FaultSpec crash;
    crash.point = "cell.start";
    crash.kind = FaultKind::Throw;
    crash.probability = 0.4;
    FaultSpec delay;
    delay.point = "engine.energy";
    delay.kind = FaultKind::Delay;
    delay.probability = 0.3;
    delay.delay_ms = 2.0;
    FaultInjector::instance().arm(seed, {crash, delay});

    SweepSpec sweep = faultSweep({0.25, 0.5, 0.75, 1.0});
    sweep.fault_policy = FaultPolicy::isolate;
    sweep.cell_attempts = 3;
    const SweepReport report = SweepRunner(std::move(sweep)).run(pureCellFn);
    FaultInjector::instance().disarm();

    ASSERT_EQ(report.rows.size(), reference.rows.size());
    for (size_t i = 0; i < report.rows.size(); ++i) {
        if (!report.outcomes[i].ok) {
            EXPECT_TRUE(report.rows[i].flag("quarantined"));
            continue;
        }
        EXPECT_TRUE(report.rows[i] == reference.rows[i])
            << "survivor " << i << " diverged under seed " << seed;
    }
}

// --------------------------------------------------------------------
// FaultKind::Abort: gated real process death
// --------------------------------------------------------------------

TEST(FaultInjectorAbort, GatedOffByDefaultAndResetOnDisarm)
{
    InjectorGuard guard;
    FaultInjector &injector = FaultInjector::instance();
    injector.arm(7, {{"abort.gate", FaultKind::Abort, 1.0, 0, 1, 0.0}});
    EXPECT_EQ(injector.plannedAbortBudget(), 1u);
    EXPECT_EQ(injector.abortAllowance(), 0u);

    // With no allowance the armed abort never fires: the probe counts
    // the hit, skips the injection, and the process lives on.
    faultProbe("abort.gate");
    faultProbe("abort.gate");
    EXPECT_EQ(injector.hits("abort.gate"), 2u);
    EXPECT_EQ(injector.injected("abort.gate"), 0u);

    injector.setAbortAllowance(3);
    EXPECT_EQ(injector.abortAllowance(), 3u);
    injector.disarm();
    EXPECT_EQ(injector.abortAllowance(), 0u); // never leaks to the next plan
    EXPECT_EQ(injector.plannedAbortBudget(), 0u);
}

TEST(FaultInjectorAbort, BudgetSumsAbortSpecsAndSaturates)
{
    InjectorGuard guard;
    FaultInjector &injector = FaultInjector::instance();
    injector.arm(7, {{"a", FaultKind::Abort, 1.0, 0, 2, 0.0},
                     {"b", FaultKind::Abort, 1.0, 0, 3, 0.0},
                     {"c", FaultKind::Throw, 1.0, 0, 9, 0.0}});
    EXPECT_EQ(injector.plannedAbortBudget(), 5u);

    injector.arm(7, {{"a", FaultKind::Abort, 1.0, 0, SIZE_MAX, 0.0},
                     {"b", FaultKind::Abort, 1.0, 0, 1, 0.0}});
    EXPECT_EQ(injector.plannedAbortBudget(), SIZE_MAX);
}

TEST(FaultInjectorAbort, GatingPreservesHitAccountingForOtherSpecs)
{
    // An abort spec that cannot fire (allowance 0) must not perturb
    // the hit stream another spec on the same point observes.
    InjectorGuard guard;
    FaultInjector &injector = FaultInjector::instance();
    injector.arm(7, {{"abort.mixed", FaultKind::Abort, 1.0, 0, 1, 0.0},
                     {"abort.mixed", FaultKind::Throw, 1.0, 1, 1, 0.0}});
    EXPECT_NO_THROW(faultProbe("abort.mixed")); // throw spec skips hit 1
    EXPECT_THROW(faultProbe("abort.mixed"), InjectedFault); // hit 2
    EXPECT_NO_THROW(faultProbe("abort.mixed")); // max reached
    EXPECT_EQ(injector.injected("abort.mixed"), 1u);
}

TEST(FaultInjectorAbort, FiresAsRealSigabrtInOptedInChildProcess)
{
    InjectorGuard guard;
    FaultInjector::instance().arm(
        7, {{"abort.child", FaultKind::Abort, 1.0, 0, 1, 0.0}});
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: opt in, hit the probe — this must be a genuine
        // process death, not an exception.
        FaultInjector::instance().setAbortAllowance(1);
        faultProbe("abort.child");
        std::_Exit(0); // unreachable if the abort fired
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status))
        << "child exited instead of dying on SIGABRT";
    EXPECT_EQ(WTERMSIG(status), SIGABRT);
    // The parent never opted in: its own probes stay safe.
    EXPECT_NO_THROW(faultProbe("abort.child"));
}

// --------------------------------------------------------------------
// CancelScope: ambient deadlines inside the simulators
// --------------------------------------------------------------------

TEST(FaultCancelScope, PublishesThreadLocallyAndRestoresOnExit)
{
    EXPECT_NO_THROW(cancelCheckpoint()); // no ambient token: a no-op

    CancelToken cancelled;
    cancelled.cancel();
    CancelToken live;
    {
        CancelScope outer(&live);
        EXPECT_NO_THROW(cancelCheckpoint());
        {
            CancelScope inner(&cancelled);
            EXPECT_THROW(cancelCheckpoint(), CancelledError);
        }
        // Inner scope gone: the outer token is ambient again.
        EXPECT_NO_THROW(cancelCheckpoint());
        {
            CancelScope nulled(nullptr); // explicit suppression
            EXPECT_NO_THROW(cancelCheckpoint());
        }
    }
    EXPECT_NO_THROW(cancelCheckpoint());

    // The ambient token is per-thread, never shared across threads.
    {
        CancelScope scope(&cancelled);
        std::thread other([] { EXPECT_NO_THROW(cancelCheckpoint()); });
        other.join();
    }
}

TEST(FaultCancelScope, CompiledSegmentsHonorTheAmbientDeadline)
{
    // An expired ambient deadline stops a compiled statevector run at
    // its entry checkpoint, before the first op — the cooperative
    // complement of the supervisor's hard-deadline SIGKILL.
    CancelToken token;
    token.setDeadline(0.01);
    while (!token.expired())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    const Circuit circuit = boundClifford(fcheAnsatz(4, 1), 11);
    const CompiledCircuit compiled(circuit);
    Statevector vec(4);
    {
        CancelScope scope(&token);
        EXPECT_THROW(vec.runCompiled(compiled), TimeoutError);
    }
    // Without the scope the same run completes untouched.
    Statevector fresh(4);
    EXPECT_NO_THROW(fresh.runCompiled(compiled));
}

TEST(FaultCancelScope, DensityMatrixStreamStopsBetweenPasses)
{
    // The density-matrix stream checks the ambient token before every
    // pass, so a past-deadline cell stops a noisy prepare within one
    // sweep of rho, and rho is still a whole n-qubit matrix.
    CancelToken token;
    token.setDeadline(0.01);
    while (!token.expired())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    const size_t n = 5;
    const std::vector<DmPass> passes = compileNoisyDmStream(
        boundClifford(fcheAnsatz(n, 1), 11), nisqDmSpec(NisqParams{}));
    DensityMatrix rho(n);
    {
        CancelScope scope(&token);
        EXPECT_THROW(rho.runPassesFromZero(passes), TimeoutError);
    }
    EXPECT_EQ(rho.nQubits(), n);
    EXPECT_EQ(rho.data().size(), size_t{1} << (2 * n));
    EXPECT_NEAR(rho.trace(), 1.0, 1e-12);
    // Without the scope the same prepare completes.
    EXPECT_NO_THROW(rho.runPassesFromZero(passes));
    EXPECT_NEAR(rho.trace(), 1.0, 1e-12);
}
