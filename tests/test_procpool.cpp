/**
 * @file
 * Process-level isolation (common/frame.hpp + vqa/procpool.hpp +
 * SweepRunner's IsolationMode::process) and store merging
 * (mergeSweepStores): the length-prefixed frame protocol, the
 * supervisor's crash classification from real worker deaths (SIGSEGV,
 * SIGABRT, plain exits, watchdog SIGKILLs on hard deadlines and lost
 * heartbeats), remote error category preservation, the equivalence
 * contract (process-isolated sweeps produce byte-identical rows and
 * stores), the flagship crash-quarantine-heal cycle under injected
 * abort/delay faults, and the merge properties: order independence,
 * idempotence, quarantine-marker propagation, loud byte conflicts.
 *
 * Suite names carry "ProcPool" / "StoreMerge" so the CI crash-matrix
 * job can select them with `ctest -R "ProcPool|StoreMerge"`.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "ansatz/ansatz.hpp"
#include "common/frame.hpp"
#include "store/sink.hpp"
#include "vqa/fault.hpp"
#include "vqa/procpool.hpp"
#include "vqa/storefmt.hpp"
#include "vqa/sweep.hpp"

using namespace eftvqa;

namespace {

/** Disarm the process-wide injector on scope exit, so a failing
 *  assertion cannot leak an armed plan into the next test. */
struct InjectorGuard
{
    ~InjectorGuard() { FaultInjector::instance().disarm(); }
};

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

/** Small serial sweep over tiny noisy-tableau cells (the same grid
 *  the fault suite pins, so stores are comparable across suites). */
SweepSpec
procSweep(std::vector<double> couplings)
{
    SweepSpec sweep;
    sweep.name = "proc-sweep";
    sweep.families = {HamFamily::Ising};
    sweep.sizes = {4};
    sweep.couplings = std::move(couplings);
    sweep.ansatz = [](int n) { return fcheAnsatz(n, 1); };
    sweep.regimes = {RegimeSpec::nisqTableau(6, 17).named("noisy")};
    sweep.cell_workers = 1; // serial: dispatch order is cell order
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

std::vector<ProcTask>
simpleTasks(size_t n)
{
    std::vector<ProcTask> tasks;
    for (size_t i = 0; i < n; ++i)
        tasks.push_back(
            {i, "k" + std::to_string(i), "task" + std::to_string(i)});
    return tasks;
}

} // namespace

// --------------------------------------------------------------------
// Frame protocol
// --------------------------------------------------------------------

TEST(ProcPoolFrame, RoundTripsOverSocketpairAndPipe)
{
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    const std::string payload = "{\"type\": \"run\", \"index\": 3}";
    EXPECT_TRUE(writeFrame(sv[0], payload));
    std::string got;
    EXPECT_TRUE(readFrame(sv[1], got));
    EXPECT_EQ(got, payload);

    // Empty payloads are legal frames.
    EXPECT_TRUE(writeFrame(sv[0], ""));
    EXPECT_TRUE(readFrame(sv[1], got));
    EXPECT_EQ(got, "");

    // A closed peer reads back as end-of-stream, not an error.
    ::close(sv[0]);
    EXPECT_FALSE(readFrame(sv[1], got));
    ::close(sv[1]);

    int fds[2];
    ASSERT_EQ(::pipe(fds), 0); // the ENOTSOCK fallback path
    EXPECT_TRUE(writeFrame(fds[1], payload));
    EXPECT_TRUE(readFrame(fds[0], got));
    EXPECT_EQ(got, payload);
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(ProcPoolFrame, BufferReassemblesSplitDelivery)
{
    // Serialize two frames, then deliver the bytes one at a time the
    // way a non-blocking read might: frames only surface once whole.
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    ASSERT_TRUE(writeFrame(sv[0], "first"));
    ASSERT_TRUE(writeFrame(sv[0], "second frame"));
    ::close(sv[0]);
    std::string wire;
    char c;
    while (::read(sv[1], &c, 1) == 1)
        wire.push_back(c);
    ::close(sv[1]);

    FrameBuffer buffer;
    std::vector<std::string> frames;
    std::string frame;
    for (const char byte : wire) {
        buffer.append(&byte, 1);
        while (buffer.next(frame))
            frames.push_back(frame);
    }
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_EQ(frames[0], "first");
    EXPECT_EQ(frames[1], "second frame");
    EXPECT_EQ(buffer.pending(), 0u);
}

TEST(ProcPoolFrame, CorruptLengthPrefixThrows)
{
    FrameBuffer buffer;
    const char bogus[4] = {'\xff', '\xff', '\xff', '\xff'};
    buffer.append(bogus, 4);
    std::string frame;
    EXPECT_THROW(buffer.next(frame), std::runtime_error);
}

// --------------------------------------------------------------------
// ProcessPool: happy path, crash classification, watchdog
// --------------------------------------------------------------------

TEST(ProcPoolSupervisor, RunsTasksInWorkerProcesses)
{
    const pid_t parent = ::getpid();
    ProcessPool pool(
        {}, simpleTasks(4), [parent](size_t i) {
            // Proof the task ran in a forked child, not this process.
            if (::getpid() == parent)
                return std::string("ran-in-parent");
            return "result-" + std::to_string(i);
        });
    for (size_t i = 0; i < 4; ++i)
        EXPECT_EQ(pool.runTask(i), "result-" + std::to_string(i));
    EXPECT_GE(pool.workersSpawned(), 1u);
    EXPECT_EQ(pool.workerCrashes(), 0u);
    EXPECT_THROW(pool.runTask(99), std::invalid_argument);
}

TEST(ProcPoolSupervisor, ConcurrentCallersShareThePool)
{
    ProcessPool::Config config;
    config.workers = 2;
    ProcessPool pool(config, simpleTasks(8), [](size_t i) {
        return std::to_string(i * i);
    });
    std::vector<std::thread> callers;
    std::vector<std::string> results(8);
    for (size_t i = 0; i < 8; ++i)
        callers.emplace_back(
            [&pool, &results, i] { results[i] = pool.runTask(i); });
    for (auto &t : callers)
        t.join();
    for (size_t i = 0; i < 8; ++i)
        EXPECT_EQ(results[i], std::to_string(i * i));
    EXPECT_EQ(pool.workerTarget(), 2u);
    EXPECT_EQ(pool.workerCrashes(), 0u);
}

TEST(ProcPoolSupervisor, ClassifiesWorkerDeaths)
{
    ProcessPool::Config config;
    config.workers = 1;
    ProcessPool pool(config, simpleTasks(4), [](size_t i) {
        if (i == 0) {
            std::signal(SIGSEGV, SIG_DFL);
            std::raise(SIGSEGV);
        }
        if (i == 1)
            std::_Exit(7);
        if (i == 2) {
            std::signal(SIGABRT, SIG_DFL);
            std::raise(SIGABRT);
        }
        return std::string("alive");
    });

    try {
        pool.runTask(0);
        FAIL() << "expected CrashError";
    } catch (const CrashError &e) {
        EXPECT_EQ(e.category(), ErrorCategory::crash);
        EXPECT_EQ(e.signalNumber(), SIGSEGV);
        EXPECT_FALSE(e.watchdogKill());
        EXPECT_NE(std::string(e.what()).find("SIGSEGV"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("task0"),
                  std::string::npos);
    }
    try {
        pool.runTask(1);
        FAIL() << "expected CrashError";
    } catch (const CrashError &e) {
        EXPECT_EQ(e.category(), ErrorCategory::crash);
        EXPECT_EQ(e.signalNumber(), 0);
        EXPECT_EQ(e.exitStatus(), 7);
        EXPECT_NE(std::string(e.what()).find("status 7"),
                  std::string::npos);
    }
    try {
        pool.runTask(2);
        FAIL() << "expected CrashError";
    } catch (const CrashError &e) {
        EXPECT_EQ(e.signalNumber(), SIGABRT);
        EXPECT_NE(std::string(e.what()).find("SIGABRT"),
                  std::string::npos);
    }
    // The pool respawns: the next task still completes.
    EXPECT_EQ(pool.runTask(3), "alive");
    EXPECT_EQ(pool.workerCrashes(), 3u);
    EXPECT_EQ(pool.watchdogKills(), 0u);
    EXPECT_GE(pool.workersSpawned(), 4u);
}

TEST(ProcPoolSupervisor, WatchdogKillsOnHardDeadline)
{
    ProcessPool::Config config;
    config.workers = 1;
    config.hard_timeout_ms = 250.0;
    ProcessPool pool(config, simpleTasks(2), [](size_t i) {
        if (i == 0)
            std::this_thread::sleep_for(std::chrono::seconds(20));
        return std::string("fast");
    });
    try {
        pool.runTask(0);
        FAIL() << "expected CrashError";
    } catch (const CrashError &e) {
        // Watchdog kills are the non-cooperative timeout.
        EXPECT_TRUE(e.watchdogKill());
        EXPECT_EQ(e.category(), ErrorCategory::timeout);
        EXPECT_NE(std::string(e.what()).find("hard deadline"),
                  std::string::npos);
    }
    EXPECT_EQ(pool.runTask(1), "fast");
    EXPECT_EQ(pool.watchdogKills(), 1u);
}

TEST(ProcPoolSupervisor, WatchdogKillsOnLostHeartbeat)
{
    ProcessPool::Config config;
    config.workers = 1;
    config.heartbeat_ms = 25.0;
    config.heartbeat_timeout_ms = 400.0;
    ProcessPool pool(config, simpleTasks(1), [](size_t) {
        // Freeze the whole worker (all threads, heartbeat included):
        // the supervisor can only notice via heartbeat staleness.
        ::kill(::getpid(), SIGSTOP);
        std::this_thread::sleep_for(std::chrono::seconds(20));
        return std::string("unreachable");
    });
    try {
        pool.runTask(0);
        FAIL() << "expected CrashError";
    } catch (const CrashError &e) {
        EXPECT_TRUE(e.watchdogKill());
        EXPECT_EQ(e.category(), ErrorCategory::timeout);
        EXPECT_NE(std::string(e.what()).find("heartbeat"),
                  std::string::npos);
    }
    EXPECT_EQ(pool.watchdogKills(), 1u);
}

TEST(ProcPoolSupervisor, RelaysRemoteErrorsWithCategory)
{
    ProcessPool pool({}, simpleTasks(2), [](size_t i) -> std::string {
        if (i == 0)
            throw std::invalid_argument("bad cell shape");
        throw TimeoutError(12.0, 10.0);
    });
    try {
        pool.runTask(0);
        FAIL() << "expected RemoteCellError";
    } catch (const RemoteCellError &e) {
        EXPECT_EQ(e.category(), ErrorCategory::invalid_argument);
        EXPECT_NE(std::string(e.what()).find("bad cell shape"),
                  std::string::npos);
    }
    try {
        pool.runTask(1);
        FAIL() << "expected RemoteCellError";
    } catch (const RemoteCellError &e) {
        EXPECT_EQ(e.category(), ErrorCategory::timeout);
    }
    EXPECT_EQ(pool.workerCrashes(), 0u); // caught errors are not deaths
}

TEST(ProcPoolSupervisor, WritesSupervisorLog)
{
    const std::string log = tempPath("procpool_events.suplog");
    ProcessPool::Config config;
    config.workers = 1;
    config.log_path = log;
    {
        ProcessPool pool(config, simpleTasks(1),
                         [](size_t) { return std::string("ok"); });
        EXPECT_EQ(pool.runTask(0), "ok");
    }
    std::ifstream is(log);
    ASSERT_TRUE(is.good());
    std::string text((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("supervisor up"), std::string::npos);
    EXPECT_NE(text.find("spawn pid="), std::string::npos);
    EXPECT_NE(text.find("dispatch pid="), std::string::npos);
    EXPECT_NE(text.find("done pid="), std::string::npos);
    std::remove(log.c_str());
}

// --------------------------------------------------------------------
// SweepRunner: IsolationMode::process
// --------------------------------------------------------------------

TEST(ProcPoolSweep, SpecValidationNamesTheField)
{
    SweepSpec sweep = procSweep({0.25});
    sweep.process_workers = 2; // without process isolation
    EXPECT_THROW(sweep.validate(), std::invalid_argument);

    sweep = procSweep({0.25});
    sweep.cell_hard_timeout_ms = 100.0;
    EXPECT_THROW(sweep.validate(), std::invalid_argument);

    sweep = procSweep({0.25});
    sweep.supervisor_log = "/tmp/x.suplog";
    EXPECT_THROW(sweep.validate(), std::invalid_argument);

    sweep = procSweep({0.25});
    sweep.isolation = IsolationMode::process; // without isolate
    EXPECT_THROW(sweep.validate(), std::invalid_argument);

    sweep = procSweep({0.25});
    sweep.fault_policy = FaultPolicy::isolate;
    sweep.isolation = IsolationMode::process;
    sweep.cell_hard_timeout_ms = -1.0;
    EXPECT_THROW(sweep.validate(), std::invalid_argument);

    sweep.cell_hard_timeout_ms = 100.0;
    sweep.process_workers = 2;
    sweep.supervisor_log = "/tmp/x.suplog";
    EXPECT_NO_THROW(sweep.validate());

    EXPECT_STREQ(isolationModeName(IsolationMode::in_process),
                 "in_process");
    EXPECT_STREQ(isolationModeName(IsolationMode::process), "process");
}

TEST(ProcPoolSweep, ProcessRowsAndStoreMatchInProcess)
{
    const std::string in_path = tempPath("proc_equiv_in.store");
    const std::string proc_path = tempPath("proc_equiv_proc.store");

    SweepSpec in_spec = procSweep({0.25, 1.0});
    in_spec.fault_policy = FaultPolicy::isolate;
    const SweepReport in_report = [&] {
        store::BinarySweepSink sink(in_path, "proc-sweep");
        return SweepRunner(in_spec).run(pureCellFn, &sink);
    }();
    ASSERT_EQ(in_report.failed, 0u);
    EXPECT_EQ(in_report.workers_spawned, 0u);

    SweepSpec proc_spec = procSweep({0.25, 1.0});
    proc_spec.fault_policy = FaultPolicy::isolate;
    proc_spec.isolation = IsolationMode::process;
    proc_spec.process_workers = 1;
    const SweepReport proc_report = [&] {
        store::BinarySweepSink sink(proc_path, "proc-sweep");
        return SweepRunner(proc_spec).run(pureCellFn, &sink);
    }();
    ASSERT_EQ(proc_report.failed, 0u);
    EXPECT_EQ(proc_report.executed, 2u);
    EXPECT_GE(proc_report.workers_spawned, 1u);
    EXPECT_EQ(proc_report.worker_crashes, 0u);

    // The isolation boundary never changes results: rows and stored
    // bytes are identical to the in-process run.
    ASSERT_EQ(proc_report.rows.size(), in_report.rows.size());
    for (size_t i = 0; i < in_report.rows.size(); ++i)
        EXPECT_TRUE(proc_report.rows[i] == in_report.rows[i]);
    EXPECT_EQ(cellLines(proc_path), cellLines(in_path));

    std::remove(in_path.c_str());
    std::remove(proc_path.c_str());
}

/**
 * The flagship containment cycle: a 4-cell sweep under process
 * isolation with seeded faults that genuinely kill worker processes —
 * an injected SIGABRT, an injected throw, and two cells wedged by an
 * injected delay that the watchdog SIGKILLs at the hard deadline.
 * Failures quarantine per policy; a heal pass re-executes them; the
 * healed store is byte-identical to a fault-free in-process run.
 */
TEST(ProcPoolFlagship, CrashQuarantineHealCycle)
{
    InjectorGuard guard;
    FaultInjector &injector = FaultInjector::instance();
    const std::vector<double> couplings = {0.25, 0.5, 0.75, 1.0};

    // Reference: fault-free, in-process.
    const std::string ref_path = tempPath("flagship_ref.store");
    SweepSpec ref_spec = procSweep(couplings);
    ref_spec.fault_policy = FaultPolicy::isolate;
    const SweepReport reference = [&] {
        store::BinarySweepSink sink(ref_path, "proc-sweep");
        return SweepRunner(ref_spec).run(pureCellFn, &sink);
    }();
    ASSERT_EQ(reference.failed, 0u);

    const std::string path = tempPath("flagship.store");
    const std::string suplog = path + ".suplog";
    auto proc_spec = [&] {
        SweepSpec sweep = procSweep(couplings);
        sweep.fault_policy = FaultPolicy::isolate;
        sweep.isolation = IsolationMode::process;
        sweep.process_workers = 1;
        sweep.supervisor_log = suplog;
        return sweep;
    };

    // Pass 1a: cell 0's worker dies on an injected SIGABRT at
    // cell.start (the supervisor grants the single abort of the
    // plan's budget to the first spawn; respawns get none, so exactly
    // one process dies). Cell 2 fails on an injected throw at its
    // worker's engine.energy probe (skip=1 lands it on the second
    // cell the respawned worker runs).
    {
        injector.arm(17,
                     {{"cell.start", FaultKind::Abort, 1.0, 0, 1, 0.0},
                      {"engine.energy", FaultKind::Throw, 1.0, 1, 1,
                       0.0}});
        store::BinarySweepSink sink(path, "proc-sweep");
        const SweepReport report =
            SweepRunner(proc_spec()).run(pureCellFn, &sink);
        injector.disarm();
        EXPECT_EQ(report.failed, 2u);
        EXPECT_EQ(report.worker_crashes, 1u);
        EXPECT_EQ(report.watchdog_kills, 0u);
        ASSERT_FALSE(report.outcomes[0].ok);
        EXPECT_EQ(report.outcomes[0].category, ErrorCategory::crash);
        EXPECT_NE(report.outcomes[0].error.find("SIGABRT"),
                  std::string::npos);
        EXPECT_TRUE(report.outcomes[1].ok);
        ASSERT_FALSE(report.outcomes[2].ok);
        EXPECT_EQ(report.outcomes[2].category, ErrorCategory::runtime);
        EXPECT_TRUE(report.outcomes[3].ok);
        // Healthy rows already match the reference bit-for-bit.
        EXPECT_TRUE(report.rows[1] == reference.rows[1]);
        EXPECT_TRUE(report.rows[3] == reference.rows[3]);

        // The supervisor log recorded the abort death (each pool
        // truncates the log, so read it before the next pass).
        std::ifstream is(suplog);
        ASSERT_TRUE(is.good());
        const std::string log((std::istreambuf_iterator<char>(is)),
                              std::istreambuf_iterator<char>());
        EXPECT_NE(log.find("death pid="), std::string::npos);
        EXPECT_NE(log.find("SIGABRT"), std::string::npos);
    }

    // Pass 1b: retry the two quarantined cells under an injected
    // 5-second delay with a 400 ms hard deadline — both workers wedge
    // and the watchdog SIGKILLs them; the cells quarantine as
    // timeouts.
    {
        injector.arm(17, {{"engine.energy", FaultKind::Delay, 1.0, 0,
                           1, 5000.0}});
        SweepSpec sweep = proc_spec();
        sweep.retry_failed = true;
        sweep.cell_hard_timeout_ms = 400.0;
        store::BinarySweepSink sink(path, "proc-sweep");
        const SweepReport report =
            SweepRunner(sweep).run(pureCellFn, &sink);
        injector.disarm();
        EXPECT_EQ(report.executed, 2u);
        EXPECT_EQ(report.skipped, 2u);
        EXPECT_EQ(report.failed, 2u);
        EXPECT_EQ(report.watchdog_kills, 2u);
        for (const size_t i : {size_t{0}, size_t{2}}) {
            ASSERT_FALSE(report.outcomes[i].ok);
            EXPECT_EQ(report.outcomes[i].category,
                      ErrorCategory::timeout);
            EXPECT_NE(report.outcomes[i].error.find("watchdog"),
                      std::string::npos);
        }
        std::ifstream is(suplog);
        ASSERT_TRUE(is.good());
        const std::string log((std::istreambuf_iterator<char>(is)),
                              std::istreambuf_iterator<char>());
        EXPECT_NE(log.find("watchdog SIGKILL pid="), std::string::npos);
    }

    // Pass 2: faults off, heal. The store must now be byte-identical
    // to the fault-free reference — crashes, SIGKILLs and quarantine
    // markers left no trace in surviving bytes.
    {
        SweepSpec sweep = proc_spec();
        sweep.retry_failed = true;
        store::BinarySweepSink sink(path, "proc-sweep");
        const SweepReport report =
            SweepRunner(sweep).run(pureCellFn, &sink);
        EXPECT_EQ(report.executed, 2u);
        EXPECT_EQ(report.skipped, 2u);
        EXPECT_EQ(report.failed, 0u);
        for (size_t i = 0; i < 4; ++i)
            EXPECT_TRUE(report.rows[i] == reference.rows[i]);
    }
    EXPECT_EQ(cellLines(path), cellLines(ref_path));

    std::remove(path.c_str());
    std::remove(ref_path.c_str());
    std::remove(suplog.c_str());
}

// --------------------------------------------------------------------
// mergeSweepStores
// --------------------------------------------------------------------

namespace {

std::string
healthyLine(const std::string &key, double j, double e0)
{
    SweepRow row;
    row.set("j", j);
    row.set("e0", e0);
    return storefmt::checksummedCellLine(
        storefmt::serializeCellPayload(key, "cell/" + key, row));
}

std::string
markerLine(const std::string &key, ErrorCategory category)
{
    CellOutcome outcome;
    outcome.ok = false;
    outcome.category = category;
    outcome.error = "injected";
    outcome.attempts = 2;
    outcome.elapsed_ms = 1.5;
    return storefmt::checksummedCellLine(storefmt::serializeCellPayload(
        key, "cell/" + key, quarantineRowFor(outcome)));
}

/** A fresh binary store at @p path holding @p lines. A line that does
 *  not verify (a torn line) lands as a raw record after the others —
 *  the damage a merge must skip and count. */
void
writeStore(const std::string &path, const std::string &name,
           const std::vector<std::string> &lines)
{
    std::remove(path.c_str());
    std::string damaged;
    {
        store::SweepStore st(path, store::SweepStore::Mode::append, name);
        for (const std::string &line : lines) {
            std::string key, label;
            SweepRow row;
            if (storefmt::parseChecksummedLine(line, key, label, row))
                st.appendLine(line);
            else
                damaged += store::detail::encodeRecord(
                    store::detail::kRecordTypeCell, line);
        }
    }
    std::ofstream(path, std::ios::binary | std::ios::app) << damaged;
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream is(path);
    return std::string((std::istreambuf_iterator<char>(is)),
                       std::istreambuf_iterator<char>());
}

} // namespace

TEST(StoreMergeProps, OrderIndependentAndIdempotent)
{
    const std::string a = tempPath("merge_a.store");
    const std::string b = tempPath("merge_b.store");
    const std::string full = tempPath("merge_full.store");
    const std::string out1 = tempPath("merge_out1.store");
    const std::string out2 = tempPath("merge_out2.store");
    const std::string out3 = tempPath("merge_out3.store");

    const std::string l1 = healthyLine("0x01", 0.25, -1.5);
    const std::string l2 = healthyLine("0x02", 0.50, -2.5);
    const std::string l3 = healthyLine("0x03", 0.75, -3.5);
    // Overlapping partitions: l2 appears in both, byte-identical.
    writeStore(a, "merge-sweep", {l1, l2});
    writeStore(b, "merge-sweep", {l2, l3});
    writeStore(full, "merge-sweep", {l3, l1, l2});

    const StoreMergeReport r1 = mergeSweepStores({a, b}, out1);
    EXPECT_EQ(r1.inputs, 2u);
    EXPECT_EQ(r1.cells, 3u);
    EXPECT_EQ(r1.healthy, 3u);
    EXPECT_EQ(r1.quarantined, 0u);
    EXPECT_EQ(r1.duplicates, 1u);

    // Order independence: {b, a} produces byte-identical output.
    mergeSweepStores({b, a}, out2);
    EXPECT_EQ(fileBytes(out1), fileBytes(out2));

    // Partition invariance: merging the partitions equals merging the
    // full store.
    mergeSweepStores({full}, out3);
    EXPECT_EQ(fileBytes(out1), fileBytes(out3));

    // Idempotence: re-merging the output (even with itself) is a
    // no-op byte-wise.
    mergeSweepStores({out1, out1}, out2);
    EXPECT_EQ(fileBytes(out1), fileBytes(out2));

    // Every merged cell line is the exact stored line, carried
    // verbatim.
    const std::vector<std::string> merged = cellLines(out1);
    ASSERT_EQ(merged.size(), 3u);
    for (const std::string &line : {l1, l2, l3})
        EXPECT_NE(std::find_if(merged.begin(), merged.end(),
                               [&](const std::string &m) {
                                   return m.find(line) !=
                                          std::string::npos;
                               }),
                  merged.end());

    for (const auto &p : {a, b, full, out1, out2, out3})
        std::remove(p.c_str());
}

TEST(StoreMergeProps, MarkersPropagateUntilHealed)
{
    const std::string a = tempPath("merge_qa.store");
    const std::string b = tempPath("merge_qb.store");
    const std::string c = tempPath("merge_qc.store");
    const std::string out = tempPath("merge_qout.store");

    // Machine A quarantined 0x01 and 0x02; machine B healed 0x01 and
    // also quarantined 0x02 (differently); machine C knows nothing.
    writeStore(a, "merge-sweep",
               {markerLine("0x01", ErrorCategory::crash),
                markerLine("0x02", ErrorCategory::timeout)});
    writeStore(b, "merge-sweep",
               {healthyLine("0x01", 0.25, -1.5),
                markerLine("0x02", ErrorCategory::crash)});
    writeStore(c, "merge-sweep", {healthyLine("0x03", 0.75, -3.5)});

    for (const auto &inputs :
         {std::vector<std::string>{a, b, c},
          std::vector<std::string>{c, b, a},
          std::vector<std::string>{b, c, a}}) {
        const StoreMergeReport report = mergeSweepStores(inputs, out);
        EXPECT_EQ(report.cells, 3u);
        // 0x01 healed; 0x02 still quarantined (no input healed it).
        EXPECT_EQ(report.healthy, 2u);
        EXPECT_EQ(report.quarantined, 1u);
        EXPECT_EQ(report.markers_superseded, 1u);
        const std::string bytes = fileBytes(out);
        EXPECT_EQ(bytes.find("\"0x01\", \"label\": \"cell/0x01\", "
                             "\"quarantined\""),
                  std::string::npos);
        EXPECT_NE(bytes.find("\"quarantined\""), std::string::npos);
    }

    // A later heal pass merges cleanly over the markers.
    const std::string heal = tempPath("merge_qheal.store");
    writeStore(heal, "merge-sweep", {healthyLine("0x02", 0.5, -2.5)});
    const StoreMergeReport healed = mergeSweepStores({out, heal}, out);
    EXPECT_EQ(healed.quarantined, 0u);
    EXPECT_EQ(healed.healthy, 3u);
    EXPECT_EQ(fileBytes(out).find("\"quarantined\""),
              std::string::npos);

    for (const auto &p : {a, b, c, out, heal})
        std::remove(p.c_str());
}

TEST(StoreMergeProps, ConflictingHealthyRowsFailLoudlyNamingTheKey)
{
    const std::string a = tempPath("merge_ca.store");
    const std::string b = tempPath("merge_cb.store");
    const std::string out = tempPath("merge_cout.store");
    writeStore(a, "merge-sweep", {healthyLine("0xbad", 0.25, -1.5)});
    writeStore(b, "merge-sweep", {healthyLine("0xbad", 0.25, -9.9)});
    try {
        mergeSweepStores({a, b}, out);
        FAIL() << "expected StoreMergeConflict";
    } catch (const StoreMergeConflict &e) {
        EXPECT_EQ(e.key(), "0xbad");
        const std::string what = e.what();
        EXPECT_NE(what.find("0xbad"), std::string::npos);
        EXPECT_NE(what.find(a), std::string::npos);
        EXPECT_NE(what.find(b), std::string::npos);
    }
    // The output was never written.
    std::ifstream is(out);
    EXPECT_FALSE(is.good());

    // Corrupt lines are skipped and counted, never merged forward.
    std::string torn = healthyLine("0xcc", 1.0, -4.5);
    torn.resize(torn.size() / 2);
    writeStore(b, "merge-sweep",
               {healthyLine("0xdd", 2.0, -5.5), torn});
    const StoreMergeReport report = mergeSweepStores({b}, out);
    EXPECT_EQ(report.cells, 1u);
    EXPECT_EQ(report.corrupt_lines, 1u);
    EXPECT_EQ(fileBytes(out).find("0xcc"), std::string::npos);

    EXPECT_THROW(mergeSweepStores({}, out), std::invalid_argument);
    EXPECT_THROW(mergeSweepStores({tempPath("merge_missing.store")}, out),
                 std::invalid_argument);

    for (const auto &p : {a, b, out})
        std::remove(p.c_str());
}

TEST(StoreMergeProps, CliPrintsSummaryAndReturnsExitCode)
{
    const std::string a = tempPath("merge_cli_a.store");
    const std::string out = tempPath("merge_cli_out.store");
    writeStore(a, "merge-sweep",
               {healthyLine("0x01", 0.25, -1.5),
                markerLine("0x02", ErrorCategory::crash)});
    std::ostringstream oss;
    EXPECT_EQ(runStoreMergeCli({a}, out, oss), 0);
    EXPECT_NE(oss.str().find("1 healthy"), std::string::npos);
    EXPECT_NE(oss.str().find("1 quarantined"), std::string::npos);

    std::ostringstream err;
    EXPECT_EQ(runStoreMergeCli({}, out, err), 1);
    EXPECT_NE(err.str().find("merge failed"), std::string::npos);

    std::remove(a.c_str());
    std::remove(out.c_str());
}

TEST(StoreMergeProps, ReportsPerInputDamageCounts)
{
    // A farmed merge must name the machine that shipped damage, not
    // bury it in the aggregate: input a is clean, input b carries a
    // quarantine marker and a torn line.
    const std::string a = tempPath("merge_pi_a.store");
    const std::string b = tempPath("merge_pi_b.store");
    const std::string out = tempPath("merge_pi_out.store");
    writeStore(a, "merge-sweep",
               {healthyLine("0x01", 0.25, -1.5),
                healthyLine("0x02", 0.50, -2.5)});
    std::string torn = healthyLine("0x03", 0.75, -3.5);
    torn.resize(torn.size() / 2);
    writeStore(b, "merge-sweep",
               {markerLine("0x04", ErrorCategory::timeout), torn});

    const StoreMergeReport report = mergeSweepStores({a, b}, out);
    ASSERT_EQ(report.per_input.size(), 2u);
    EXPECT_EQ(report.per_input[0].path, a);
    EXPECT_EQ(report.per_input[0].cells, 2u);
    EXPECT_EQ(report.per_input[0].quarantined, 0u);
    EXPECT_EQ(report.per_input[0].corrupt_lines, 0u);
    EXPECT_EQ(report.per_input[1].path, b);
    EXPECT_EQ(report.per_input[1].cells, 1u);
    EXPECT_EQ(report.per_input[1].quarantined, 1u);
    EXPECT_EQ(report.per_input[1].corrupt_lines, 1u);
    // Per-input numbers must sum to the aggregates.
    EXPECT_EQ(report.corrupt_lines, 1u);

    // The CLI prints one line per input with its own counts.
    std::ostringstream oss;
    EXPECT_EQ(runStoreMergeCli({a, b}, out, oss), 0);
    EXPECT_NE(oss.str().find(a + ": 2 cell(s), 0 quarantined, "
                                 "0 corrupt line(s)"),
              std::string::npos)
        << oss.str();
    EXPECT_NE(oss.str().find(b + ": 1 cell(s), 1 quarantined, "
                                 "1 corrupt line(s)"),
              std::string::npos)
        << oss.str();

    for (const auto &p : {a, b, out})
        std::remove(p.c_str());
}
