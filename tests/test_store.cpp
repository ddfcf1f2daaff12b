/**
 * @file
 * The binary sweep store engine (store/sweep_store.hpp) and its sink
 * (store/sink.hpp): append/read-back and group commit, the index
 * fast path vs the full-scan fallback (stale index, torn tail,
 * mid-file rot with and without a clean close), online compaction and
 * its crash window, the typed rejection of other on-disk versions,
 * empty-file recovery, byte-identity of a sink run's exported lines
 * against its report rows, the resume / quarantine / retry_failed
 * contracts through BinarySweepSink, the JSON <-> binary conversion
 * round trip against the checked-in fixture, and binary-only merge.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ansatz/ansatz.hpp"
#include "ham/ising.hpp"
#include "store/sink.hpp"
#include "store/sweep_store.hpp"
#include "vqa/fault.hpp"
#include "vqa/sweep.hpp"

using namespace eftvqa;
using store::SweepStore;

namespace {

std::string
tempPath(const std::string &name)
{
    const std::string path = ::testing::TempDir() + name;
    std::remove(path.c_str());
    return path;
}

/** One checksummed healthy cell line for @p key. */
std::string
cellLine(uint64_t key, const std::string &label, double value)
{
    SweepRow row;
    row.set("value", value);
    return storefmt::checksummedCellLine(storefmt::serializeCellPayload(
        storefmt::hex64(key), label, row));
}

/** One checksummed quarantine-marker line for @p key. */
std::string
markerLine(uint64_t key, const std::string &label)
{
    CellOutcome outcome;
    outcome.ok = false;
    outcome.category = ErrorCategory::runtime;
    outcome.error = "boom";
    outcome.attempts = 1;
    return storefmt::checksummedCellLine(storefmt::serializeCellPayload(
        storefmt::hex64(key), label, quarantineRowFor(outcome)));
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(is),
                       std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void
appendBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::app);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/** The u32 on-disk version field of the store header at @p path. */
uint32_t
headerVersion(const std::string &path)
{
    const std::string bytes = readFile(path);
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<uint32_t>(static_cast<unsigned char>(bytes[8 + i]))
             << (8 * i);
    return v;
}

/** The cell lines of a binary store, in first-seen order. */
std::vector<std::string>
storeLines(const std::string &path)
{
    std::vector<std::string> lines;
    for (const storefmt::StoreCell &cell :
         SweepStore(path, SweepStore::Mode::read_only).cells())
        lines.push_back(cell.line);
    return lines;
}

/** The cell lines of a JSON store file, in order (summary skipped). */
std::vector<std::string>
jsonStoreLines(const std::string &path)
{
    std::vector<std::string> lines;
    for (const storefmt::StoreCell &cell :
         storefmt::readStoreCells(path).cells)
        lines.push_back(cell.line);
    return lines;
}

struct InjectorGuard
{
    ~InjectorGuard() { FaultInjector::instance().disarm(); }
};

/** Small grid over tiny noisy-tableau cells (test_sweep's workload). */
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

/** Cheap pure cell function keyed off the grid point. */
SweepRow
pointCellFn(const SweepCell &cell, ExperimentSession &)
{
    SweepRow row;
    row.set("family", hamFamilyName(cell.point.family));
    row.set("qubits", cell.point.qubits);
    row.set("j", cell.point.coupling);
    row.set("value", cell.point.qubits * 0.25 + cell.point.coupling);
    return row;
}

} // namespace

// --------------------------------------------------------------------
// Core engine: append, read back, validation
// --------------------------------------------------------------------

TEST(BinaryStore, FreshStoreAppendsAndReadsBack)
{
    const std::string path = tempPath("store_fresh.bin");
    SweepStore st(path, SweepStore::Mode::append, "fresh-sweep");
    EXPECT_EQ(st.sweepName(), "fresh-sweep");
    EXPECT_EQ(headerVersion(path), SweepStore::kVersion);
    EXPECT_EQ(st.cellCount(), 0u);

    const std::string a = cellLine(0x11, "a", 1.5);
    const std::string b = cellLine(0x22, "b", -2.0 / 3.0);
    st.appendLine(a);
    st.appendLine(b);

    EXPECT_EQ(st.cellCount(), 2u);
    EXPECT_TRUE(st.containsKey(storefmt::hex64(0x11)));
    EXPECT_FALSE(st.containsKey(storefmt::hex64(0x33)));
    EXPECT_EQ(st.lineFor(storefmt::hex64(0x11)), a);
    EXPECT_EQ(st.lineFor(storefmt::hex64(0x22)), b);
    EXPECT_THROW(st.lineFor(storefmt::hex64(0x33)), std::exception);

    const auto cells = st.cells();
    ASSERT_EQ(cells.size(), 2u);
    EXPECT_EQ(cells[0].line, a); // first-seen order
    EXPECT_EQ(cells[1].line, b);
    EXPECT_EQ(cells[0].label, "a");
    EXPECT_FALSE(cells[0].marker);

    const store::StoreStats s = st.stats();
    EXPECT_EQ(s.appends, 2u);
    EXPECT_GE(s.fsyncs, 1u);
    EXPECT_GT(s.bytes_appended, a.size() + b.size());
    std::remove(path.c_str());
}

TEST(BinaryStore, RejectsCorruptAndKeylessLines)
{
    const std::string path = tempPath("store_reject.bin");
    SweepStore st(path, SweepStore::Mode::append);

    std::string tampered = cellLine(0x11, "a", 1.0);
    tampered[12] ^= 1; // one bit of the key hex: the line's crc fails
    EXPECT_THROW(st.appendLine(tampered), std::invalid_argument);

    // A verified line whose key is not a 0x... content key.
    SweepRow row;
    row.set("value", 1.0);
    const std::string keyless = storefmt::checksummedCellLine(
        storefmt::serializeCellPayload("not-a-key", "a", row));
    EXPECT_THROW(st.appendLine(keyless), std::invalid_argument);

    EXPECT_EQ(st.cellCount(), 0u);
    EXPECT_EQ(st.stats().appends, 0u);
    std::remove(path.c_str());
}

TEST(BinaryStore, ReadOnlyModeRejectsAppendsAndMissingFiles)
{
    const std::string path = tempPath("store_ro.bin");
    EXPECT_THROW(SweepStore(path, SweepStore::Mode::read_only),
                 std::runtime_error);
    {
        SweepStore st(path, SweepStore::Mode::append);
        st.appendLine(cellLine(0x11, "a", 1.0));
    }
    SweepStore ro(path, SweepStore::Mode::read_only);
    EXPECT_EQ(ro.cellCount(), 1u);
    EXPECT_THROW(ro.appendLine(cellLine(0x22, "b", 2.0)),
                 std::logic_error);
    EXPECT_THROW(ro.compact(), std::logic_error);

    // A non-store file is rejected with a message naming the path.
    const std::string junk = tempPath("store_junk.bin");
    writeFile(junk, "definitely not a sweep store\n");
    EXPECT_THROW(SweepStore(junk, SweepStore::Mode::read_only),
                 std::runtime_error);
    std::remove(path.c_str());
    std::remove(junk.c_str());
}

// --------------------------------------------------------------------
// Index fast path vs full-scan fallback
// --------------------------------------------------------------------

TEST(BinaryStore, CleanCloseTakesTheIndexFastPath)
{
    const std::string path = tempPath("store_fastpath.bin");
    const auto before = store::globalStoreCounters();
    {
        SweepStore st(path, SweepStore::Mode::append, "indexed");
        st.appendLine(cellLine(0x11, "a", 1.0));
        st.appendLine(cellLine(0x22, "b", 2.0));
        // Destructor syncs: the index segment lands on clean close.
    }
    SweepStore ro(path, SweepStore::Mode::read_only);
    EXPECT_EQ(ro.sweepName(), "indexed");
    EXPECT_EQ(ro.cellCount(), 2u);
    EXPECT_EQ(ro.stats().index_loads, 1u);
    EXPECT_EQ(ro.stats().index_rebuilds, 0u);
    EXPECT_EQ(ro.lineFor(storefmt::hex64(0x22)),
              cellLine(0x22, "b", 2.0));

    const auto after = store::globalStoreCounters();
    EXPECT_GE(after.writer_opens, before.writer_opens + 1);
    EXPECT_GE(after.reader_opens, before.reader_opens + 1);
    EXPECT_GE(after.index_loads, before.index_loads + 1);
    std::remove(path.c_str());
}

TEST(BinaryStore, StaleIndexFallsBackToTheLogScan)
{
    const std::string path = tempPath("store_stale.bin");
    {
        SweepStore st(path, SweepStore::Mode::append, "stale");
        st.appendLine(cellLine(0x11, "a", 1.0));
        st.appendLine(cellLine(0x22, "b", 2.0));
    }
    // The log grows past the persisted index segment (the shape a
    // crash-before-close leaves): the open must distrust the header
    // pointer and rebuild from the data log.
    appendBytes(path, store::detail::encodeRecord(
                          store::detail::kRecordTypeCell,
                          cellLine(0x33, "c", 3.0)));

    SweepStore ro(path, SweepStore::Mode::read_only);
    EXPECT_EQ(ro.cellCount(), 3u);
    EXPECT_TRUE(ro.containsKey(storefmt::hex64(0x33)));
    EXPECT_EQ(ro.stats().index_loads, 0u);
    EXPECT_EQ(ro.stats().index_rebuilds, 1u);

    // An append-mode reopen heals: sync() persists a fresh index and
    // the next open is back on the fast path.
    {
        SweepStore st(path, SweepStore::Mode::append);
        EXPECT_EQ(st.stats().index_rebuilds, 1u);
        st.sync();
    }
    SweepStore again(path, SweepStore::Mode::read_only);
    EXPECT_EQ(again.cellCount(), 3u);
    EXPECT_EQ(again.stats().index_loads, 1u);
    std::remove(path.c_str());
}

TEST(BinaryStore, TornTailIsTruncatedOnAppendOpen)
{
    const std::string path = tempPath("store_torn.bin");
    {
        SweepStore st(path, SweepStore::Mode::append, "torn");
        st.appendLine(cellLine(0x11, "a", 1.0));
        st.appendLine(cellLine(0x22, "b", 2.0));
    }
    const size_t clean_size = readFile(path).size();

    // A kill mid-append leaves a prefix of a record at the tail.
    const std::string full = store::detail::encodeRecord(
        store::detail::kRecordTypeCell, cellLine(0x33, "c", 3.0));
    appendBytes(path, full.substr(0, full.size() / 2));

    {
        SweepStore st(path, SweepStore::Mode::append);
        EXPECT_EQ(st.cellCount(), 2u);
        EXPECT_FALSE(st.containsKey(storefmt::hex64(0x33)));
        EXPECT_GT(st.stats().torn_bytes, 0u);
        // The torn bytes are gone from disk; appends continue cleanly.
        EXPECT_LE(readFile(path).size(), clean_size);
        st.appendLine(cellLine(0x44, "d", 4.0));
    }
    SweepStore ro(path, SweepStore::Mode::read_only);
    EXPECT_EQ(ro.cellCount(), 3u);
    EXPECT_TRUE(ro.containsKey(storefmt::hex64(0x44)));
    std::remove(path.c_str());
}

TEST(BinaryStore, TornTailIsIgnoredReadOnly)
{
    const std::string path = tempPath("store_torn_ro.bin");
    {
        SweepStore st(path, SweepStore::Mode::append, "torn-ro");
        st.appendLine(cellLine(0x11, "a", 1.0));
    }
    const std::string full = store::detail::encodeRecord(
        store::detail::kRecordTypeCell, cellLine(0x22, "b", 2.0));
    appendBytes(path, full.substr(0, full.size() - 3));
    const size_t torn_size = readFile(path).size();

    SweepStore ro(path, SweepStore::Mode::read_only);
    EXPECT_EQ(ro.cellCount(), 1u);
    EXPECT_GT(ro.stats().torn_bytes, 0u);
    // Read-only never modifies the file.
    EXPECT_EQ(readFile(path).size(), torn_size);
    std::remove(path.c_str());
}

TEST(BinaryStore, MidFileRotResyncsOnTheRecordMagic)
{
    const std::string name = "rot-store";
    const std::string path = tempPath("store_rot.bin");
    {
        SweepStore st(path, SweepStore::Mode::append, name);
        st.appendLine(cellLine(0x11, "a", 1.0));
        st.appendLine(cellLine(0x22, "b", 2.0));
    }
    // Outgrow the index so the open scans, then flip one byte inside
    // the first cell's payload: header(64) + name record + 12.
    appendBytes(path, store::detail::encodeRecord(
                          store::detail::kRecordTypeCell,
                          cellLine(0x33, "c", 3.0)));
    std::string bytes = readFile(path);
    const size_t cell1_payload = 64 + (12 + name.size() + 8) + 12;
    bytes[cell1_payload + 5] ^= 0x01;
    writeFile(path, bytes);

    {
        SweepStore ro(path, SweepStore::Mode::read_only);
        EXPECT_GE(ro.stats().corrupt_records, 1u);
        EXPECT_FALSE(ro.containsKey(storefmt::hex64(0x11)));
        EXPECT_TRUE(ro.containsKey(storefmt::hex64(0x22)));
        EXPECT_TRUE(ro.containsKey(storefmt::hex64(0x33)));
    }

    // The same rot behind a clean close: the index segment is valid
    // and points straight at the rotted record. The open must check
    // the record's crc, fall back to the full scan and count it —
    // never serve it.
    const std::string clean = tempPath("store_rot_clean.bin");
    {
        SweepStore st(clean, SweepStore::Mode::append, name);
        st.appendLine(cellLine(0x11, "a", 1.0));
        st.appendLine(cellLine(0x22, "b", 2.0));
    }
    bytes = readFile(clean);
    bytes[cell1_payload + 5] ^= 0x01;
    writeFile(clean, bytes);
    {
        SweepStore ro(clean, SweepStore::Mode::read_only);
        EXPECT_EQ(ro.stats().index_loads, 0u);
        EXPECT_EQ(ro.stats().index_rebuilds, 1u);
        EXPECT_EQ(ro.stats().corrupt_records, 1u);
        EXPECT_EQ(ro.sweepName(), name);
        EXPECT_FALSE(ro.containsKey(storefmt::hex64(0x11)));
        EXPECT_EQ(ro.lineFor(storefmt::hex64(0x22)),
                  cellLine(0x22, "b", 2.0));
    }
    // An append open re-stores the lost cell and the next open is back
    // on the fast path.
    {
        SweepStore st(clean, SweepStore::Mode::append);
        st.appendLine(cellLine(0x11, "a", 1.0));
    }
    SweepStore again(clean, SweepStore::Mode::read_only);
    EXPECT_EQ(again.stats().index_loads, 1u);
    EXPECT_EQ(again.cellCount(), 2u);
    EXPECT_EQ(again.lineFor(storefmt::hex64(0x11)),
              cellLine(0x11, "a", 1.0));
    std::remove(path.c_str());
    std::remove(clean.c_str());
}

// --------------------------------------------------------------------
// Supersede rules, group commit, compaction
// --------------------------------------------------------------------

TEST(BinaryStore, HealthyRowsSupersedeMarkersNeverTheReverse)
{
    const std::string path = tempPath("store_supersede.bin");
    SweepStore st(path, SweepStore::Mode::append);
    const std::string key = storefmt::hex64(0x11);

    st.appendLine(markerLine(0x11, "a"));
    EXPECT_TRUE(st.markerFor(key));
    EXPECT_EQ(st.markerCount(), 1u);

    const std::string healthy = cellLine(0x11, "a", 1.0);
    st.appendLine(healthy);
    EXPECT_FALSE(st.markerFor(key));
    EXPECT_EQ(st.lineFor(key), healthy);

    // A later marker must not clobber the healthy row (the merge /
    // retry_failed rule: markers supersede only markers).
    st.appendLine(markerLine(0x11, "a"));
    EXPECT_FALSE(st.markerFor(key));
    EXPECT_EQ(st.lineFor(key), healthy);
    EXPECT_EQ(st.cellCount(), 1u);
    EXPECT_EQ(st.markerCount(), 0u);
    std::remove(path.c_str());
}

TEST(BinaryStore, GroupCommitKeepsEveryConcurrentAppendDurable)
{
    const std::string path = tempPath("store_group.bin");
    constexpr int kThreads = 8;
    constexpr int kPerThread = 32;
    {
        SweepStore st(path, SweepStore::Mode::append, "group");
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t)
            threads.emplace_back([&st, t] {
                for (int i = 0; i < kPerThread; ++i)
                    st.appendLine(cellLine(
                        0x1000u + static_cast<uint64_t>(t) * 100 + i,
                        "t" + std::to_string(t), t + i * 0.5));
            });
        for (auto &th : threads)
            th.join();

        const store::StoreStats s = st.stats();
        EXPECT_EQ(st.cellCount(),
                  static_cast<size_t>(kThreads * kPerThread));
        EXPECT_EQ(s.appends,
                  static_cast<uint64_t>(kThreads * kPerThread));
        // Group commit: never more fsyncs than appends, and each
        // batch fsyncs once.
        EXPECT_LE(s.fsyncs - 1, s.appends); // -1: the create fsync
        EXPECT_GE(s.commit_batches, 1u);
        EXPECT_LE(s.commit_batches, s.appends);
        EXPECT_GE(s.max_commit_batch, 1u);
    }
    // Every append survived the close, readable by a cold scan-free
    // open.
    SweepStore ro(path, SweepStore::Mode::read_only);
    EXPECT_EQ(ro.cellCount(), static_cast<size_t>(kThreads * kPerThread));
    for (int t = 0; t < kThreads; ++t)
        EXPECT_TRUE(ro.containsKey(storefmt::hex64(
            0x1000u + static_cast<uint64_t>(t) * 100 + kPerThread - 1)));
    std::remove(path.c_str());
}

TEST(BinaryStore, GroupCommitFailureFailsEveryBatchedAppender)
{
    InjectorGuard guard;
    const std::string path = tempPath("store_group_fail.bin");
    {
        SweepStore st(path, SweepStore::Mode::append, "groupfail");
        st.appendLine(cellLine(0x11, "a", 1.0)); // durable pre-fault

        FaultSpec spec;
        spec.point = "store.append";
        spec.kind = FaultKind::Throw;
        spec.max_injections = 1;
        FaultInjector::instance().arm(7, {spec});

        // The first leader commit after arming fails. Every appender
        // racing into that batch — or queued behind it — must throw:
        // a silent success here is data loss the sweep driver would
        // never notice (the cell looks stored and is never rerun).
        constexpr int kThreads = 8;
        std::atomic<int> ok{0};
        std::atomic<int> failed{0};
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t)
            threads.emplace_back([&st, &ok, &failed, t] {
                try {
                    st.appendLine(
                        cellLine(0x2000u + static_cast<uint64_t>(t),
                                 "t" + std::to_string(t), t * 1.0));
                    ++ok;
                } catch (const std::exception &) {
                    ++failed;
                }
            });
        for (auto &th : threads)
            th.join();
        FaultInjector::instance().disarm();

        EXPECT_EQ(ok.load(), 0);
        EXPECT_EQ(failed.load(), kThreads);

        // The failure is sticky: the store refuses further work
        // instead of pretending the disk recovered — and the close
        // below (the destructor's sync) must not deadlock on the
        // abandoned queue.
        EXPECT_THROW(st.appendLine(cellLine(0x33, "c", 3.0)),
                     std::runtime_error);
        EXPECT_THROW(st.sync(), std::runtime_error);
    }
    // Only the pre-fault record reached the disk; the log reopens
    // clean without the failed batch.
    SweepStore ro(path, SweepStore::Mode::read_only);
    EXPECT_EQ(ro.cellCount(), 1u);
    EXPECT_TRUE(ro.containsKey(storefmt::hex64(0x11)));
    std::remove(path.c_str());
}

TEST(BinaryStore, CompactionDropsDuplicatesAndSupersededMarkers)
{
    const std::string path = tempPath("store_compact.bin");
    {
        SweepStore st(path, SweepStore::Mode::append, "compact");
        st.appendLine(cellLine(0x11, "a", 1.0));
        st.appendLine(markerLine(0x22, "b"));
        st.appendLine(cellLine(0x11, "a", 1.0)); // duplicate key
        st.appendLine(cellLine(0x22, "b", 2.0)); // heals the marker
        st.appendLine(markerLine(0x33, "c"));    // stays quarantined
    }
    const size_t before = readFile(path).size();
    {
        SweepStore st(path, SweepStore::Mode::append);
        st.compact();
        EXPECT_EQ(st.stats().compactions, 1u);
        EXPECT_EQ(st.cellCount(), 3u);
        EXPECT_EQ(st.markerCount(), 1u);
        EXPECT_FALSE(st.markerFor(storefmt::hex64(0x22)));
        EXPECT_TRUE(st.markerFor(storefmt::hex64(0x33)));
        EXPECT_EQ(st.lineFor(storefmt::hex64(0x22)),
                  cellLine(0x22, "b", 2.0));
        // Appending after compaction continues the new segment.
        st.appendLine(cellLine(0x44, "d", 4.0));
    }
    EXPECT_LT(readFile(path).size(), before);
    SweepStore ro(path, SweepStore::Mode::read_only);
    EXPECT_EQ(ro.cellCount(), 4u);
    EXPECT_EQ(ro.sweepName(), "compact");
    std::remove(path.c_str());
}

TEST(BinaryStore, CompactionCrashWindowLeavesTheOldSegmentIntact)
{
    InjectorGuard guard;
    const std::string path = tempPath("store_compact_crash.bin");
    {
        SweepStore st(path, SweepStore::Mode::append, "crashy");
        st.appendLine(cellLine(0x11, "a", 1.0));
        st.appendLine(cellLine(0x11, "a", 1.0));
        st.appendLine(cellLine(0x22, "b", 2.0));

        FaultSpec spec;
        spec.point = "store.compact";
        spec.kind = FaultKind::Throw;
        spec.max_injections = 1;
        FaultInjector::instance().arm(7, {spec});
        // The injected crash lands in the swap window: the fresh
        // segment is complete on a sibling file, the rename never
        // happens.
        EXPECT_THROW(st.compact(), InjectedFault);
        FaultInjector::instance().disarm();

        // The live store still answers from the old segment.
        EXPECT_EQ(st.cellCount(), 2u);
        EXPECT_EQ(st.lineFor(storefmt::hex64(0x11)),
                  cellLine(0x11, "a", 1.0));

        // And a retry completes the interrupted compaction.
        st.compact();
        EXPECT_EQ(st.stats().compactions, 1u);
    }
    SweepStore ro(path, SweepStore::Mode::read_only);
    EXPECT_EQ(ro.cellCount(), 2u);
    std::remove(path.c_str());
}

// --------------------------------------------------------------------
// Versioned header, empty-file recovery
// --------------------------------------------------------------------

TEST(BinaryStore, OtherVersionsAreRejectedInBothOpenModes)
{
    const std::string path = tempPath("store_version.bin");
    {
        SweepStore st(path, SweepStore::Mode::append, "versioned");
        st.appendLine(cellLine(0x11, "a", 1.0));
    }
    ASSERT_EQ(headerVersion(path), SweepStore::kVersion);
    const std::string current = readFile(path);

    // Any other value in the header's version field — an older format,
    // a newer one, garbage — is a typed rejection naming the path and
    // both versions, whether the open would write or only read, and
    // the file is left as it was.
    for (const uint32_t version :
         {0u, 1u, SweepStore::kVersion + 1, 0xffffffffu}) {
        std::string bytes = current;
        for (int i = 0; i < 4; ++i)
            bytes[8 + i] = static_cast<char>((version >> (8 * i)) & 0xffu);
        writeFile(path, bytes);
        for (const SweepStore::Mode mode :
             {SweepStore::Mode::read_only, SweepStore::Mode::append}) {
            try {
                SweepStore st(path, mode);
                FAIL() << "expected StoreVersionError for version "
                       << version;
            } catch (const store::StoreVersionError &e) {
                EXPECT_EQ(e.foundVersion(), version);
                const std::string what = e.what();
                EXPECT_NE(what.find(path), std::string::npos);
                EXPECT_NE(what.find("version " + std::to_string(version)),
                          std::string::npos);
                EXPECT_NE(what.find("version " +
                                    std::to_string(SweepStore::kVersion)),
                          std::string::npos);
                EXPECT_EQ(what.find("upgrade"), std::string::npos);
            }
            EXPECT_EQ(readFile(path), bytes);
        }
    }
    std::remove(path.c_str());
}

TEST(BinaryStore, ZeroLengthFileOpensFreshForAppendOnly)
{
    // A crash between open(O_CREAT) and the first fsync leaves an
    // empty file. An append open starts it over as a fresh store
    // instead of failing on every later run; a read-only open still
    // refuses it.
    const std::string path = tempPath("store_empty.bin");
    writeFile(path, "");
    EXPECT_THROW(SweepStore(path, SweepStore::Mode::read_only),
                 std::runtime_error);
    {
        SweepStore st(path, SweepStore::Mode::append, "reborn");
        EXPECT_EQ(st.cellCount(), 0u);
        st.appendLine(cellLine(0x11, "a", 1.0));
    }
    {
        SweepStore ro(path, SweepStore::Mode::read_only);
        EXPECT_EQ(ro.sweepName(), "reborn");
        EXPECT_EQ(ro.cellCount(), 1u);
    }

    // Through the sink factory every driver uses, the sweep runs.
    writeFile(path, "");
    {
        auto sink = store::makeSweepSink(path, "test-sweep");
        const SweepReport report =
            SweepRunner(smallSweep()).run(pointCellFn, sink.get());
        EXPECT_EQ(report.executed, 1u);
    }
    EXPECT_EQ(SweepStore(path, SweepStore::Mode::read_only).cellCount(),
              1u);
    std::remove(path.c_str());
}

// --------------------------------------------------------------------
// BinarySweepSink: the sink contract over the engine
// --------------------------------------------------------------------

TEST(BinaryStoreSink, ExportedRunEqualsTheReportRowsLines)
{
    // A sink run stores exactly the checksummed line of each report
    // row, in cell order, and `vqastore export` hands those bytes out
    // verbatim — doubles in round-trip form included.
    const std::string bin_path = tempPath("sink_export.store");
    const std::string export_path = tempPath("sink_export.json");

    SweepSpec spec = smallSweep();
    spec.sizes = {4, 5};
    spec.couplings = {0.5, 1.0};
    const auto craftedFn = [](const SweepCell &cell,
                              ExperimentSession &session) {
        SweepRow row = pointCellFn(cell, session);
        row.set("tiny", 1.0e-17);
        row.set("third", 1.0 / 3.0);
        row.set("huge", -3.5e300);
        row.set("whole", 16.0);
        row.set("ok", true);
        return row;
    };

    SweepRunner runner(spec);
    SweepReport report;
    {
        store::BinarySweepSink sink(bin_path, "test-sweep");
        report = runner.run(craftedFn, &sink);
    }
    store::exportStoreToJson(bin_path, export_path);

    const std::vector<SweepCell> &cells = runner.cells();
    ASSERT_EQ(report.rows.size(), 4u);
    std::vector<std::string> expected;
    for (size_t i = 0; i < cells.size(); ++i)
        expected.push_back(
            storefmt::checksummedCellLine(storefmt::serializeCellPayload(
                cells[i].keyString(), cells[i].label, report.rows[i])));
    EXPECT_EQ(jsonStoreLines(export_path), expected);
    EXPECT_EQ(storefmt::readStoreCells(export_path).sweep_name,
              "test-sweep");

    // And the binary sink reloads every row bit-identically.
    store::BinarySweepSink reloaded(bin_path, "test-sweep");
    EXPECT_EQ(reloaded.loadedCells(), 4u);
    for (size_t i = 0; i < cells.size(); ++i) {
        ASSERT_TRUE(reloaded.contains(cells[i]));
        EXPECT_TRUE(reloaded.storedRow(cells[i]) == report.rows[i]);
    }

    std::remove(bin_path.c_str());
    std::remove(export_path.c_str());
}

TEST(BinaryStoreSink, ResumeExecutesOnlyMissingCells)
{
    const std::string path = tempPath("sink_resume.bin");

    SweepSpec subset = smallSweep();
    subset.cell_workers = 1;
    SweepReport first;
    {
        auto sink = store::makeSweepSink(path, "test-sweep");
        first = SweepRunner(std::move(subset))
                    .run(pointCellFn, sink.get());
        EXPECT_EQ(first.executed, 1u);
    }
    EXPECT_EQ(headerVersion(path), SweepStore::kVersion);

    SweepSpec full = smallSweep();
    full.sizes = {4, 5};
    full.cell_workers = 1;
    SweepReport second;
    {
        auto sink = store::makeSweepSink(path, "test-sweep");
        auto *binary =
            dynamic_cast<store::BinarySweepSink *>(sink.get());
        ASSERT_NE(binary, nullptr);
        EXPECT_EQ(binary->loadedCells(), 1u);
        second = SweepRunner(std::move(full))
                     .run(pointCellFn, sink.get());
        EXPECT_EQ(second.executed, 1u);
        EXPECT_EQ(second.skipped, 1u);
        ASSERT_EQ(second.rows.size(), 2u);
        EXPECT_TRUE(second.rows[0] == first.rows[0]);
    }

    SweepSpec again = smallSweep();
    again.sizes = {4, 5};
    again.cell_workers = 1;
    {
        auto sink = store::makeSweepSink(path, "test-sweep");
        const SweepReport third =
            SweepRunner(std::move(again)).run(pointCellFn, sink.get());
        EXPECT_EQ(third.executed, 0u);
        EXPECT_EQ(third.skipped, 2u);
        for (size_t i = 0; i < 2; ++i)
            EXPECT_TRUE(third.rows[i] == second.rows[i]);
    }
    std::remove(path.c_str());
}

TEST(BinaryStoreSink, RetryFailedHealsQuarantinedCells)
{
    const std::string path = tempPath("sink_heal.bin");
    std::atomic<bool> failing{true};
    const auto flaky = [&failing](const SweepCell &cell,
                                  ExperimentSession &session) {
        if (failing.load())
            throw std::runtime_error("transient cell failure");
        return pointCellFn(cell, session);
    };

    SweepSpec spec = smallSweep();
    spec.fault_policy = FaultPolicy::isolate;
    {
        store::BinarySweepSink sink(path, "test-sweep");
        const SweepReport report =
            SweepRunner(spec).run(flaky, &sink);
        EXPECT_EQ(report.failed, 1u);
    }
    {
        store::BinarySweepSink sink(path, "test-sweep");
        EXPECT_EQ(sink.quarantinedCells(), 1u);
        // Without retry_failed the marker is carried, not retried.
        const SweepReport carried =
            SweepRunner(spec).run(flaky, &sink);
        EXPECT_EQ(carried.executed, 0u);
    }
    failing.store(false);
    SweepSpec heal = smallSweep();
    heal.fault_policy = FaultPolicy::isolate;
    heal.retry_failed = true;
    {
        store::BinarySweepSink sink(path, "test-sweep");
        const SweepReport healed =
            SweepRunner(std::move(heal)).run(flaky, &sink);
        EXPECT_EQ(healed.executed, 1u);
        EXPECT_EQ(healed.failed, 0u);
    }
    SweepStore ro(path, SweepStore::Mode::read_only);
    EXPECT_EQ(ro.cellCount(), 1u);
    EXPECT_EQ(ro.markerCount(), 0u);
    std::remove(path.c_str());
}

TEST(BinaryStoreSink, ReservedFieldNamesAreRejected)
{
    const std::string path = tempPath("sink_reserved.bin");
    store::BinarySweepSink sink(path, "test-sweep");
    EXPECT_THROW(SweepRunner(smallSweep())
                     .run(
                         [](const SweepCell &, ExperimentSession &) {
                             SweepRow row;
                             row.set("crc", "clash");
                             return row;
                         },
                         &sink),
                 std::invalid_argument);
    std::remove(path.c_str());
}

TEST(BinaryStoreSink, MakeSweepSinkRejectsJsonStoresNamingImport)
{
    // Every sink is a binary store, whatever the path is called.
    const std::string fresh = tempPath("pick_fresh.json");
    {
        auto sink = store::makeSweepSink(fresh, "test-sweep");
        SweepRunner(smallSweep()).run(pointCellFn, sink.get());
    }
    EXPECT_EQ(headerVersion(fresh), SweepStore::kVersion);
    EXPECT_EQ(SweepStore(fresh, SweepStore::Mode::read_only).cellCount(),
              1u);

    // An existing JSON store is neither resumed from nor overwritten:
    // the open fails with an error naming the path and the conversion.
    const std::string json = tempPath("pick_json.json");
    storefmt::writeJsonStore(json, "test-sweep",
                             {cellLine(0x11, "a", 1.0)});
    const std::string before = readFile(json);
    try {
        store::makeSweepSink(json, "test-sweep");
        FAIL() << "expected the JSON store to be rejected";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(json), std::string::npos);
        EXPECT_NE(what.find("vqastore import"), std::string::npos);
    }
    EXPECT_EQ(readFile(json), before);

    // The import is the way in: its result resumes like any store.
    const std::string imported = tempPath("pick_imported.store");
    store::importJsonToStore(json, imported);
    {
        store::BinarySweepSink sink(imported, "test-sweep");
        EXPECT_EQ(sink.loadedCells(), 1u);
    }

    std::remove(fresh.c_str());
    std::remove(json.c_str());
    std::remove(imported.c_str());
}

// --------------------------------------------------------------------
// The CI store-matrix contract: seeded sink.write crashes
// --------------------------------------------------------------------

TEST(StoreFaultMatrix, SinkWriteCrashesStayResumableAtTheEnvSeed)
{
    // At whatever seed EFTVQA_FAULTS carries: random injected crashes
    // at the binary sink's "sink.write" window lose at most the
    // in-flight row — every committed record survives, each rerun
    // resumes from the survivors, and the healed store's cells equal
    // the fault-free reference store's byte for byte.
    InjectorGuard guard;
    const std::string path = tempPath("store_fault_matrix.bin");
    const std::string ref_path = tempPath("store_fault_matrix_ref.bin");

    SweepSpec ref_spec = smallSweep();
    ref_spec.couplings = {0.25, 0.5, 0.75, 1.0};
    ref_spec.cell_workers = 1;
    SweepReport reference;
    {
        store::BinarySweepSink ref_sink(ref_path, "test-sweep");
        reference = SweepRunner(ref_spec).run(pointCellFn, &ref_sink);
    }

    FaultSpec spec;
    spec.point = "sink.write";
    spec.kind = FaultKind::Throw;
    spec.probability = 0.5;
    spec.max_injections = 2;
    FaultInjector::instance().arm(FaultInjector::envSeed().value_or(1),
                                  {spec});
    // The plan allows two crashes, so the third pass at the latest
    // runs clean and completes the store.
    for (int pass = 0; pass < 3; ++pass) {
        try {
            auto sink = store::makeSweepSink(path, "test-sweep");
            SweepRunner(ref_spec).run(pointCellFn, sink.get());
            break;
        } catch (const InjectedFault &) {
            // Resume from the committed records on the next pass.
        }
    }
    FaultInjector::instance().disarm();

    auto sink = store::makeSweepSink(path, "test-sweep");
    const SweepReport healed =
        SweepRunner(ref_spec).run(pointCellFn, sink.get());
    EXPECT_EQ(healed.executed, 0u);
    EXPECT_EQ(healed.skipped, 4u);
    EXPECT_EQ(healed.failed, 0u);
    ASSERT_EQ(healed.rows.size(), reference.rows.size());
    for (size_t i = 0; i < healed.rows.size(); ++i)
        EXPECT_TRUE(healed.rows[i] == reference.rows[i]);

    // Byte identity against the reference store. Which writes crashed
    // varies by seed, so the healed store's first-seen order may
    // differ from the serial order — compare as sorted line sets.
    std::vector<std::string> ref_lines = storeLines(ref_path);
    std::vector<std::string> bin_lines = storeLines(path);
    std::sort(ref_lines.begin(), ref_lines.end());
    std::sort(bin_lines.begin(), bin_lines.end());
    EXPECT_EQ(bin_lines, ref_lines);

    std::remove(path.c_str());
    std::remove(ref_path.c_str());
}

// --------------------------------------------------------------------
// Conversion and merge across formats
// --------------------------------------------------------------------

TEST(StoreConvert, FixtureRoundTripsByteIdentically)
{
    const std::string fixture =
        std::string(EFTVQA_TEST_DATA_DIR) + "/fig12_smoke_store.json";
    const storefmt::StoreScan reference =
        storefmt::readStoreCells(fixture);
    ASSERT_TRUE(reference.found);
    ASSERT_EQ(reference.cells.size(), 2u);
    EXPECT_EQ(reference.sweep_name, "fig12_clifford_scale");

    const std::string bin_path = tempPath("convert_fixture.bin");
    const std::string back_path = tempPath("convert_fixture_back.json");

    const store::ConvertReport imported =
        store::importJsonToStore(fixture, bin_path);
    EXPECT_EQ(imported.cells, 2u);
    EXPECT_EQ(imported.skipped, 0u);

    // Importing the same file again is a verified no-op.
    const store::ConvertReport repeat =
        store::importJsonToStore(fixture, bin_path);
    EXPECT_EQ(repeat.cells, 0u);
    EXPECT_EQ(repeat.skipped, 2u);

    const store::ConvertReport exported =
        store::exportStoreToJson(bin_path, back_path);
    EXPECT_EQ(exported.cells, 2u);

    // The fixture is exactly what `vqastore export` writes, so the
    // whole file — header, cell lines and closing brackets — comes back.
    EXPECT_EQ(readFile(back_path), readFile(fixture));

    std::remove(bin_path.c_str());
    std::remove(back_path.c_str());
}

TEST(StoreConvert, MergeWritesBinaryAndRejectsJsonInputs)
{
    const std::string json_in = tempPath("merge_in.json");
    const std::string bin_a = tempPath("merge_in_a.store");
    const std::string bin_b = tempPath("merge_in_b.store");
    const std::string out_a = tempPath("merge_out_a.store");
    const std::string out_b = tempPath("merge_out_b.store");

    storefmt::writeJsonStore(json_in, "merged",
                             {cellLine(0x11, "a", 1.0)});
    {
        SweepStore st(bin_a, SweepStore::Mode::append, "merged");
        st.appendLine(cellLine(0x11, "a", 1.0));
    }
    {
        SweepStore st(bin_b, SweepStore::Mode::append, "merged");
        st.appendLine(cellLine(0x22, "b", 2.0));
    }

    mergeSweepStores({bin_a, bin_b}, out_a);
    EXPECT_EQ(headerVersion(out_a), SweepStore::kVersion);
    {
        SweepStore ro(out_a, SweepStore::Mode::read_only);
        EXPECT_EQ(ro.sweepName(), "merged");
        EXPECT_EQ(ro.cellCount(), 2u);
        EXPECT_EQ(ro.lineFor(storefmt::hex64(0x11)),
                  cellLine(0x11, "a", 1.0));
        EXPECT_EQ(ro.lineFor(storefmt::hex64(0x22)),
                  cellLine(0x22, "b", 2.0));
    }

    // Deterministic: the same merge lands the same bytes, and merging
    // a merge output back in changes nothing.
    mergeSweepStores({bin_b, bin_a}, out_b);
    EXPECT_EQ(readFile(out_a), readFile(out_b));
    mergeSweepStores({out_a, bin_a, bin_b}, out_b);
    EXPECT_EQ(readFile(out_a), readFile(out_b));

    // A JSON input is rejected naming the conversion, and nothing is
    // written.
    std::remove(out_b.c_str());
    try {
        mergeSweepStores({bin_a, json_in}, out_b);
        FAIL() << "expected the JSON input to be rejected";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("vqastore import"),
                  std::string::npos);
    }
    EXPECT_FALSE(std::ifstream(out_b).good());
    std::ostringstream cli;
    EXPECT_EQ(runStoreMergeCli({json_in}, out_b, cli), 1);
    EXPECT_NE(cli.str().find("vqastore import"), std::string::npos);

    for (const auto &p : {json_in, bin_a, bin_b, out_a, out_b})
        std::remove(p.c_str());
}
