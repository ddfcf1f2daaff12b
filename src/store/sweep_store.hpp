/**
 * @file
 * The append-only binary sweep store engine — the one store every
 * sweep sink, the daemon and the merge tooling write (exemplar shape:
 * the Solaris configd transactional object store):
 *
 *  - **Append-only data log.** One record per store line, written
 *    once, never rewritten. A completed cell costs O(row) bytes.
 *  - **Group-commit writer.** appendLine() is thread-safe: concurrent
 *    appenders enqueue, one leader writes the whole pending batch
 *    with a single write()+fsync(), and every member returns durable.
 *    The daemon's coalesced clients share one fsync this way.
 *  - **Per-record checksums + torn-tail truncation.** Every record
 *    carries the FNV-1a of its payload (the storefmt checksum). A
 *    kill mid-append leaves a torn tail that open() truncates (append
 *    mode) or ignores (read-only); mid-file rot is skipped by
 *    resyncing on the record magic and counted, never trusted.
 *  - **In-file hash index segment.** A clean close appends an index
 *    record (key -> record offset/length) and points the header at
 *    it, so the next open skips parsing the log. The data log stays
 *    the source of truth: a stale index (log grew past it, crash
 *    before close) or any indexed record whose crc no longer matches
 *    fails the validity checks and the open falls back to a full
 *    scan + rebuild. Readers resolve lines by pread — concurrent
 *    readers never block each other; one writer is serialized.
 *  - **Online compaction.** compact() drops superseded quarantine
 *    markers and duplicate keys, writes a fresh log + index to a
 *    sibling file and atomically renames it over the store. A crash
 *    mid-compaction leaves the old segment intact.
 *  - **Versioned header.** The header carries the on-disk format
 *    version; a store of any other version is rejected with a typed
 *    StoreVersionError in both open modes.
 *
 * Cell payloads are the *exact* checksummed JSON store lines of
 * vqa/storefmt — storefmt stays the single parse/serialize authority,
 * and `vqastore export` (exportStoreToJson) writes those lines
 * verbatim into a JSON file; `vqastore import` is the way back.
 */

#ifndef EFTVQA_STORE_SWEEP_STORE_HPP
#define EFTVQA_STORE_SWEEP_STORE_HPP

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "vqa/storefmt.hpp"

namespace eftvqa {
namespace store {

/** The store at @p path has an on-disk version other than the one
 *  this build reads and writes. what() names the path and both
 *  versions. */
class StoreVersionError : public std::runtime_error
{
  public:
    StoreVersionError(const std::string &path, uint32_t found,
                      uint32_t expected)
        : std::runtime_error(
              "SweepStore: '" + path + "' has on-disk version " +
              std::to_string(found) + "; this build reads and writes "
              "only version " + std::to_string(expected)),
          found_(found)
    {
    }

    uint32_t foundVersion() const { return found_; }

  private:
    uint32_t found_ = 0;
};

/** Per-store counters (a stats() snapshot). */
struct StoreStats
{
    size_t cells = 0;   ///< distinct keys currently indexed
    size_t markers = 0; ///< keys whose latest entry is a marker
    uint64_t appends = 0;
    uint64_t bytes_appended = 0;
    uint64_t fsyncs = 0;
    uint64_t commit_batches = 0;
    uint64_t max_commit_batch = 0;
    uint64_t compactions = 0;
    uint64_t index_rebuilds = 0; ///< opens that full-scanned the log
    uint64_t index_loads = 0;    ///< opens served by the index segment
    uint64_t corrupt_records = 0;
    uint64_t torn_bytes = 0; ///< torn-tail bytes truncated/ignored

    /** Damage the open skipped: corrupt records plus one for a torn
     *  tail. */
    uint64_t corruptLines() const
    {
        return corrupt_records + (torn_bytes > 0 ? 1 : 0);
    }
};

/** Process-wide counters across every SweepStore (kstat-style: cheap
 *  relaxed atomics, bumped alongside the per-store ones — the daemon
 *  stats frame and `vqac stats` read this snapshot). */
struct GlobalStoreCounters
{
    uint64_t appends = 0;
    uint64_t bytes_appended = 0;
    uint64_t fsyncs = 0;
    uint64_t commit_batches = 0;
    uint64_t max_commit_batch = 0;
    uint64_t compactions = 0;
    uint64_t index_rebuilds = 0;
    uint64_t index_loads = 0;
    uint64_t reader_opens = 0;
    uint64_t writer_opens = 0;
};

GlobalStoreCounters globalStoreCounters();

/**
 * One append-only binary sweep store file. Thread contract: any
 * number of concurrent readers (containsKey/markerFor/lineFor/cells)
 * against one logically serialized writer — appendLine() itself may
 * be called from many threads and group-commits internally; sync()
 * and compact() serialize with the writer.
 */
class SweepStore
{
  public:
    enum class Mode
    {
        read_only, ///< never modifies the file (torn tails ignored)
        append     ///< creates the file if missing; truncates torn tails
    };

    /** The one on-disk version this build reads and writes. */
    static constexpr uint32_t kVersion = 2;

    /** Open (append mode: or create) the store at @p path.
     *  @p sweep_name seeds a fresh store's name record; an existing
     *  store keeps its stored name. An empty file — a crash between
     *  creation and the first fsync — opens for append as a fresh
     *  store. Throws StoreVersionError on a store of any other
     *  version, std::runtime_error on a missing or empty read-only
     *  store or a non-store file (the message names `vqastore
     *  import` for JSON stores). */
    SweepStore(std::string path, Mode mode,
               std::string sweep_name = "sweep");
    ~SweepStore();

    SweepStore(const SweepStore &) = delete;
    SweepStore &operator=(const SweepStore &) = delete;

    const std::string &path() const { return path_; }
    const std::string &sweepName() const { return sweep_name_; }
    Mode mode() const { return mode_; }

    /** Distinct cell keys currently indexed. */
    size_t cellCount() const;
    /** Keys whose latest entry is a quarantine marker. */
    size_t markerCount() const;

    bool containsKey(const std::string &key) const;
    /** True when the latest entry for @p key is a quarantine marker
     *  (false for healthy rows and absent keys). */
    bool markerFor(const std::string &key) const;
    /** The exact stored line bytes for @p key (latest entry, healthy
     *  rows superseding markers). Throws if absent. */
    std::string lineFor(const std::string &key) const;
    /** Every indexed cell (latest per key, first-seen order), parsed
     *  through storefmt like a JSON store scan. */
    std::vector<storefmt::StoreCell> cells() const;

    /** Append one checksummed store line (the exact bytes
     *  storefmt::checksummedCellLine produces). Verifies the line's
     *  own crc before accepting it; returns once the record is
     *  fsync-durable (group-committed with concurrent appenders).
     *  Throws std::invalid_argument on a corrupt or key-less line,
     *  std::logic_error in read-only mode. A write/fsync failure
     *  (ENOSPC, dying disk — the "store.append" fault probe) fails
     *  every appendLine batched with it, not just the committing
     *  leader, and is sticky: later appends throw the same error
     *  immediately, so no caller ever sees success for a record
     *  that was not persisted. */
    void appendLine(const std::string &line);

    /** Flush pending appends and persist the index segment + header,
     *  so the next open takes the O(index) fast path. Appending again
     *  afterwards invalidates the header index (the log grows past
     *  the segment) — open() detects that and rebuilds. */
    void sync();

    /**
     * Online compaction: rewrite the store with one record per key
     * (healthy rows supersede markers, duplicates drop), append a
     * fresh index, and atomically rename the new segment over the
     * store. Readers see either the old or the new segment, never a
     * mix; a crash in the swap window (the "store.compact" fault
     * probe) leaves the old segment intact. Append mode only.
     */
    void compact();

    StoreStats stats() const;

  private:
    struct Entry
    {
        uint64_t offset = 0; ///< record start offset in the file
        uint32_t length = 0; ///< payload (line) length in bytes
        bool marker = false;
    };

    struct Pending
    {
        std::string record; ///< encoded record bytes
        uint64_t key = 0;
        uint32_t length = 0; ///< line length
        bool marker = false;
        uint64_t seq = 0;
    };

    void createFresh();
    void loadExisting();
    bool tryLoadIndexSegment(const std::string &file);
    void scanLog(const std::string &file, uint64_t from);
    void indexInsert(uint64_t key, const Entry &entry);
    void invalidateHeaderIndexLocked();
    void writeIndexSegmentLocked();
    std::string readLineAt(const Entry &entry) const;
    void drainWritersLocked(std::unique_lock<std::mutex> &lk);

    std::string path_;
    Mode mode_ = Mode::read_only;
    std::string sweep_name_;
    int fd_ = -1;

    // Reader state: the key index and the fd used for pread. Shared
    // lock for lookups, exclusive only when the writer installs a
    // committed batch or compaction swaps the file.
    mutable std::shared_mutex index_mutex_;
    std::unordered_map<uint64_t, Entry> index_;
    std::vector<uint64_t> order_; ///< first-seen key order

    // Writer state (group commit).
    mutable std::mutex writer_mutex_;
    std::condition_variable writer_cv_;
    std::vector<Pending> pending_;
    bool writer_active_ = false;
    uint64_t enqueue_seq_ = 0;
    uint64_t durable_seq_ = 0;
    uint64_t append_offset_ = 0;   ///< end of the data log
    bool header_index_valid_ = false;
    std::string io_error_; ///< sticky write failure (ENOSPC etc.)

    mutable std::mutex stats_mutex_;
    StoreStats stats_;
};

/** What a format conversion did. */
struct ConvertReport
{
    size_t cells = 0;   ///< lines written to the output
    size_t skipped = 0; ///< duplicate lines already present
};

/** Export a binary store to a JSON store file (storefmt::
 *  writeJsonStore): the stored cell lines verbatim, latest entry per
 *  key in first-seen order. */
ConvertReport exportStoreToJson(const std::string &store_path,
                                const std::string &json_path);

/** Import a JSON store's verified lines into the binary store at
 *  @p store_path (created if missing, merged by key if present under
 *  the merge rule, supersedesStoredLine: byte-identical repeats skip,
 *  healthy supersedes marker, healthy byte conflicts throw
 *  StoreMergeConflict). */
ConvertReport importJsonToStore(const std::string &json_path,
                                const std::string &store_path);

namespace detail {

/** Encode one record (tests craft stale-index and
 *  mid-file-rot shapes with this). Type 2 is a cell line. */
std::string encodeRecord(uint32_t type, std::string_view payload);

constexpr uint32_t kRecordTypeName = 1;
constexpr uint32_t kRecordTypeCell = 2;
constexpr uint32_t kRecordTypeIndex = 3;

} // namespace detail
} // namespace store
} // namespace eftvqa

#endif // EFTVQA_STORE_SWEEP_STORE_HPP
