/**
 * @file
 * SweepStore implementation. On-disk layout (all integers
 * little-endian, encoded explicitly so stores are machine-portable):
 *
 *   header (64 bytes):
 *     [ 0: 8) magic "EFTVQAST"
 *     [ 8:12) u32 version (2)
 *     [12:16) u32 header_bytes (64)
 *     [16:24) u64 index_offset   (0 = no valid index segment)
 *     [24:32) u64 index_cells
 *     [32:40) u64 data_end       (== index_offset when the index is valid)
 *     [40:48) u64 header crc     (FNV-1a over bytes [0:40))
 *     [48:64) reserved zeros
 *
 *   record:    [u32 record magic][u32 payload_len][u32 type]
 *              [payload][u64 crc]  — crc is FNV-1a over the 4
 *              little-endian type bytes followed by the payload.
 *              Types: 1 = sweep name, 2 = cell line, 3 = index.
 *
 *   index payload: [u64 data_end][u64 count] then per entry
 *              [u64 key][u64 payload_offset][u32 payload_len][u8 marker].
 *
 * Cell payloads are exact storefmt checksummed lines, so every line
 * is protected twice (its own JSON crc field and the record crc) and
 * export back to JSON is a verbatim byte copy.
 */

#include "store/sweep_store.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>

#include "vqa/fault.hpp"
#include "vqa/sweep.hpp"

namespace eftvqa {
namespace store {

namespace {

constexpr char kFileMagic[8] = {'E', 'F', 'T', 'V', 'Q', 'A', 'S', 'T'};
constexpr uint32_t kRecordMagic = 0x45525453u; // "STRE" on disk (LE)
constexpr size_t kHeaderBytes = 64;
constexpr size_t kRecordOverhead = 12 + 8; // magic+len+type ... crc
constexpr size_t kIndexEntryBytes = 8 + 8 + 4 + 1;

// ------------------------------------------------------------------
// Explicit little-endian encode/decode (portable store bytes).
// ------------------------------------------------------------------

void
putU32(std::string &out, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
}

void
putU64(std::string &out, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
}

uint32_t
getU32(const std::string &buf, size_t pos)
{
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<uint32_t>(
                 static_cast<unsigned char>(buf[pos + i]))
             << (8 * i);
    return v;
}

uint64_t
getU64(const std::string &buf, size_t pos)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(
                 static_cast<unsigned char>(buf[pos + i]))
             << (8 * i);
    return v;
}

/** Record crc: FNV-1a over the little-endian type bytes + payload —
 *  the type is covered so a flipped type byte cannot masquerade. */
uint64_t
recordCrc(uint32_t type, std::string_view payload)
{
    std::string prefix;
    putU32(prefix, type);
    uint64_t h = 14695981039346656037ull;
    auto mix = [&h](std::string_view text) {
        for (const char c : text) {
            h ^= static_cast<unsigned char>(c);
            h *= 1099511628211ull;
        }
    };
    mix(prefix);
    mix(payload);
    return h;
}

/** True when a whole @p type record with a @p len-byte payload and a
 *  matching crc starts at @p at and ends by @p end. */
bool
recordIntactAt(const std::string &file, uint64_t at, uint32_t type,
               uint64_t len, uint64_t end)
{
    if (at > end || end - at < kRecordOverhead ||
        len > end - at - kRecordOverhead ||
        getU32(file, at) != kRecordMagic || getU32(file, at + 4) != len ||
        getU32(file, at + 8) != type)
        return false;
    return getU64(file, at + 12 + len) ==
           recordCrc(type, std::string_view(file.data() + at + 12, len));
}

// ------------------------------------------------------------------
// Header encode/decode
// ------------------------------------------------------------------

struct Header
{
    bool magic = false; ///< the file starts with the store magic
    uint32_t version = 0;
    uint64_t index_offset = 0;
    uint64_t data_end = 0;
    bool valid = false; ///< a current-version header with a good crc
};

std::string
encodeHeader(uint64_t index_offset, uint64_t index_cells,
             uint64_t data_end)
{
    std::string h;
    h.append(kFileMagic, sizeof(kFileMagic));
    putU32(h, SweepStore::kVersion);
    putU32(h, static_cast<uint32_t>(kHeaderBytes));
    putU64(h, index_offset);
    putU64(h, index_cells);
    putU64(h, data_end);
    putU64(h, storefmt::fnv1a64(std::string_view(h.data(), h.size())));
    h.resize(kHeaderBytes, '\0');
    return h;
}

Header
decodeHeader(const std::string &buf)
{
    Header h;
    if (buf.size() < 12 ||
        std::memcmp(buf.data(), kFileMagic, sizeof(kFileMagic)) != 0)
        return h;
    h.magic = true;
    h.version = getU32(buf, 8);
    if (h.version != SweepStore::kVersion || buf.size() < kHeaderBytes ||
        getU32(buf, 12) != kHeaderBytes)
        return h;
    h.index_offset = getU64(buf, 16);
    h.data_end = getU64(buf, 32);
    const uint64_t crc = getU64(buf, 40);
    h.valid = crc == storefmt::fnv1a64(std::string_view(buf.data(), 40));
    return h;
}

// ------------------------------------------------------------------
// POSIX io helpers
// ------------------------------------------------------------------

void
writeAllAt(int fd, const std::string &bytes, uint64_t offset,
           const std::string &path)
{
    size_t done = 0;
    while (done < bytes.size()) {
        const ssize_t n =
            ::pwrite(fd, bytes.data() + done, bytes.size() - done,
                     static_cast<off_t>(offset + done));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw std::runtime_error("SweepStore: write to '" + path +
                                     "' failed: " +
                                     std::strerror(errno));
        }
        done += static_cast<size_t>(n);
    }
}

void
fsyncFd(int fd, const std::string &path)
{
    if (::fsync(fd) != 0)
        throw std::runtime_error("SweepStore: fsync of '" + path +
                                 "' failed: " + std::strerror(errno));
}

std::string
readWholeFile(const std::string &path, bool &found)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        found = false;
        return {};
    }
    found = true;
    std::string buf((std::istreambuf_iterator<char>(is)),
                    std::istreambuf_iterator<char>());
    return buf;
}

/** "0x..." hex cell key -> u64 (the index key). */
bool
parseCellKey(const std::string &key, uint64_t &out)
{
    if (key.size() < 3 || key.size() > 18 || key[0] != '0' ||
        key[1] != 'x')
        return false;
    uint64_t v = 0;
    for (size_t i = 2; i < key.size(); ++i) {
        const char c = key[i];
        uint64_t digit = 0;
        if (c >= '0' && c <= '9')
            digit = static_cast<uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            digit = static_cast<uint64_t>(c - 'a') + 10;
        else if (c >= 'A' && c <= 'F')
            digit = static_cast<uint64_t>(c - 'A') + 10;
        else
            return false;
        v = (v << 4) | digit;
    }
    out = v;
    return true;
}

size_t
findRecordMagic(const std::string &buf, size_t from)
{
    std::string needle;
    putU32(needle, kRecordMagic);
    return buf.find(needle, from);
}

// ------------------------------------------------------------------
// Process-wide counters (kstat-style relaxed atomics)
// ------------------------------------------------------------------

struct GlobalAtomics
{
    std::atomic<uint64_t> appends{0};
    std::atomic<uint64_t> bytes_appended{0};
    std::atomic<uint64_t> fsyncs{0};
    std::atomic<uint64_t> commit_batches{0};
    std::atomic<uint64_t> max_commit_batch{0};
    std::atomic<uint64_t> compactions{0};
    std::atomic<uint64_t> index_rebuilds{0};
    std::atomic<uint64_t> index_loads{0};
    std::atomic<uint64_t> reader_opens{0};
    std::atomic<uint64_t> writer_opens{0};
};

GlobalAtomics &
globals()
{
    static GlobalAtomics g;
    return g;
}

void
bumpMax(std::atomic<uint64_t> &slot, uint64_t v)
{
    uint64_t cur = slot.load(std::memory_order_relaxed);
    while (cur < v &&
           !slot.compare_exchange_weak(cur, v,
                                       std::memory_order_relaxed))
        ;
}

} // namespace

GlobalStoreCounters
globalStoreCounters()
{
    const GlobalAtomics &g = globals();
    GlobalStoreCounters c;
    c.appends = g.appends.load(std::memory_order_relaxed);
    c.bytes_appended = g.bytes_appended.load(std::memory_order_relaxed);
    c.fsyncs = g.fsyncs.load(std::memory_order_relaxed);
    c.commit_batches = g.commit_batches.load(std::memory_order_relaxed);
    c.max_commit_batch =
        g.max_commit_batch.load(std::memory_order_relaxed);
    c.compactions = g.compactions.load(std::memory_order_relaxed);
    c.index_rebuilds = g.index_rebuilds.load(std::memory_order_relaxed);
    c.index_loads = g.index_loads.load(std::memory_order_relaxed);
    c.reader_opens = g.reader_opens.load(std::memory_order_relaxed);
    c.writer_opens = g.writer_opens.load(std::memory_order_relaxed);
    return c;
}

namespace detail {

std::string
encodeRecord(uint32_t type, std::string_view payload)
{
    std::string rec;
    rec.reserve(kRecordOverhead + payload.size());
    putU32(rec, kRecordMagic);
    putU32(rec, static_cast<uint32_t>(payload.size()));
    putU32(rec, type);
    rec.append(payload.data(), payload.size());
    putU64(rec, recordCrc(type, payload));
    return rec;
}

} // namespace detail

// ------------------------------------------------------------------
// SweepStore — open paths
// ------------------------------------------------------------------

SweepStore::SweepStore(std::string path, Mode mode,
                       std::string sweep_name)
    : path_(std::move(path)), mode_(mode),
      sweep_name_(std::move(sweep_name))
{
    struct stat st;
    const bool exists = ::stat(path_.c_str(), &st) == 0;
    if (!exists && mode_ == Mode::read_only)
        throw std::runtime_error("SweepStore: no store at '" + path_ +
                                 "'");
    // An empty file is what a crash between creation and the first
    // fsync leaves behind: an append open starts it over.
    if (!exists || (st.st_size == 0 && mode_ == Mode::append))
        createFresh();
    else
        loadExisting();
    if (mode_ == Mode::append)
        globals().writer_opens.fetch_add(1, std::memory_order_relaxed);
    else
        globals().reader_opens.fetch_add(1, std::memory_order_relaxed);
}

SweepStore::~SweepStore()
{
    try {
        if (mode_ == Mode::append)
            sync();
    } catch (...) {
        // Destructors stay noexcept; the log itself is already
        // durable — only the index fast path is lost.
    }
    if (fd_ >= 0)
        ::close(fd_);
}

void
SweepStore::createFresh()
{
    if (sweep_name_.empty())
        sweep_name_ = "sweep";
    fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (fd_ < 0)
        throw std::runtime_error("SweepStore: cannot create '" + path_ +
                                 "': " + std::strerror(errno));
    std::string out = encodeHeader(0, 0, 0);
    out += detail::encodeRecord(detail::kRecordTypeName, sweep_name_);
    writeAllAt(fd_, out, 0, path_);
    fsyncFd(fd_, path_);
    // The new directory entry is durable only once its directory is.
    storefmt::fsyncParentDir(path_);
    append_offset_ = out.size();
    header_index_valid_ = false;
    {
        std::lock_guard<std::mutex> sg(stats_mutex_);
        ++stats_.fsyncs;
    }
    globals().fsyncs.fetch_add(1, std::memory_order_relaxed);
}

void
SweepStore::loadExisting()
{
    bool found = false;
    const std::string file = readWholeFile(path_, found);
    if (!found)
        throw std::runtime_error("SweepStore: cannot read '" + path_ +
                                 "'");
    const Header h = decodeHeader(file);
    if (h.magic && h.version != kVersion)
        throw StoreVersionError(path_, h.version, kVersion);
    if (!h.valid)
        throw std::runtime_error(
            "SweepStore: '" + path_ +
            "' is not a binary sweep store (bad magic or header); "
            "convert a JSON store with `vqastore import`");

    fd_ = ::open(path_.c_str(),
                 (mode_ == Mode::append ? O_RDWR : O_RDONLY) |
                     O_CLOEXEC);
    if (fd_ < 0)
        throw std::runtime_error("SweepStore: cannot open '" + path_ +
                                 "': " + std::strerror(errno));

    sweep_name_.clear();
    const bool indexed =
        h.index_offset != 0 && tryLoadIndexSegment(file);
    if (indexed) {
        append_offset_ = h.data_end;
        header_index_valid_ = true;
        {
            std::lock_guard<std::mutex> sg(stats_mutex_);
            ++stats_.index_loads;
        }
        globals().index_loads.fetch_add(1, std::memory_order_relaxed);
    } else {
        scanLog(file, kHeaderBytes);
        header_index_valid_ = false;
        if (file.size() > kHeaderBytes) {
            std::lock_guard<std::mutex> sg(stats_mutex_);
            ++stats_.index_rebuilds;
            globals().index_rebuilds.fetch_add(
                1, std::memory_order_relaxed);
        }
    }
    if (sweep_name_.empty())
        sweep_name_ = "sweep";

    if (mode_ == Mode::append &&
        (file.size() > append_offset_ || h.index_offset != 0)) {
        // The scan's data_end is authoritative: drop any torn tail /
        // stale index segment so new records continue the clean log,
        // and withdraw the header's index pointer. (When a valid
        // index was loaded this truncates the segment off too; sync()
        // rewrites it on close.)
        if (::ftruncate(fd_, static_cast<off_t>(append_offset_)) != 0)
            throw std::runtime_error("SweepStore: cannot truncate '" +
                                     path_ + "': " +
                                     std::strerror(errno));
        writeAllAt(fd_, encodeHeader(0, 0, 0), 0, path_);
        fsyncFd(fd_, path_);
        header_index_valid_ = false;
        {
            std::lock_guard<std::mutex> sg(stats_mutex_);
            ++stats_.fsyncs;
        }
        globals().fsyncs.fetch_add(1, std::memory_order_relaxed);
    }
}

bool
SweepStore::tryLoadIndexSegment(const std::string &file)
{
    const Header h = decodeHeader(file);
    const uint64_t io = h.index_offset;
    // The index is only trusted when the header, the segment and the
    // file length all agree — any append after the last sync grows
    // the file past the segment and fails these checks, sending the
    // open down the full-scan path (the log is the source of truth).
    if (io != h.data_end || io < kHeaderBytes ||
        io + kRecordOverhead > file.size())
        return false;
    const uint64_t len = getU32(file, io + 4);
    if (io + kRecordOverhead + len != file.size() ||
        !recordIntactAt(file, io, detail::kRecordTypeIndex, len,
                        file.size()) ||
        len < 16)
        return false;
    const uint64_t payload_data_end = getU64(file, io + 12);
    const uint64_t count = getU64(file, io + 20);
    if (payload_data_end != io ||
        (len - 16) % kIndexEntryBytes != 0 ||
        count != (len - 16) / kIndexEntryBytes)
        return false;

    // The sweep name still comes from its record (the index segment
    // carries only cell entries).
    if (kHeaderBytes + kRecordOverhead > io)
        return false;
    const uint64_t name_len = getU32(file, kHeaderBytes + 4);
    if (name_len == 0 ||
        !recordIntactAt(file, kHeaderBytes, detail::kRecordTypeName,
                        name_len, io))
        return false;

    std::unordered_map<uint64_t, Entry> index;
    std::vector<uint64_t> order;
    index.reserve(count);
    order.reserve(count);
    size_t pos = io + 12 + 16;
    for (uint64_t i = 0; i < count; ++i, pos += kIndexEntryBytes) {
        Entry e;
        const uint64_t key = getU64(file, pos);
        e.offset = getU64(file, pos + 8);
        e.length = getU32(file, pos + 16);
        e.marker = file[pos + 20] != 0;
        // Every indexed record is whole and still matches its crc; a
        // rotted one sends the open down the full scan, which counts
        // it as corrupt instead of serving it.
        if (e.offset < kHeaderBytes + 12 ||
            !recordIntactAt(file, e.offset - 12, detail::kRecordTypeCell,
                            e.length, io))
            return false;
        if (index.emplace(key, e).second)
            order.push_back(key);
    }
    sweep_name_.assign(file, kHeaderBytes + 12, name_len);
    index_ = std::move(index);
    order_ = std::move(order);
    return true;
}

void
SweepStore::scanLog(const std::string &file, uint64_t from)
{
    size_t pos = from;
    while (pos < file.size()) {
        const bool head = pos + kRecordOverhead <= file.size() &&
                          getU32(file, pos) == kRecordMagic;
        const uint64_t len = head ? getU32(file, pos + 4) : 0;
        const uint32_t type = head ? getU32(file, pos + 8) : 0;
        if (head && recordIntactAt(file, pos, type, len, file.size())) {
            const std::string_view payload(file.data() + pos + 12, len);
            if (type == detail::kRecordTypeName) {
                if (sweep_name_.empty())
                    sweep_name_.assign(payload);
            } else if (type == detail::kRecordTypeCell) {
                std::string key_s, label;
                SweepRow row;
                uint64_t key = 0;
                const std::string line(payload);
                if (storefmt::parseChecksummedLine(line, key_s, label,
                                                   row) &&
                    parseCellKey(key_s, key)) {
                    Entry e;
                    e.offset = pos + 12;
                    e.length = static_cast<uint32_t>(len);
                    e.marker = row.has("quarantined");
                    indexInsert(key, e);
                } else {
                    std::lock_guard<std::mutex> sg(stats_mutex_);
                    ++stats_.corrupt_records;
                }
            }
            // kRecordTypeIndex mid-log: a stale segment a later append
            // outran — skip it, the live records around it are the
            // truth.
            pos += kRecordOverhead + len;
            continue;
        }
        // Either a torn tail (no further record boundary) or mid-file
        // rot (resync on the next record magic).
        const size_t next = findRecordMagic(file, pos + 1);
        if (next == std::string::npos) {
            std::lock_guard<std::mutex> sg(stats_mutex_);
            stats_.torn_bytes += file.size() - pos;
            break;
        }
        {
            std::lock_guard<std::mutex> sg(stats_mutex_);
            ++stats_.corrupt_records;
        }
        pos = next;
    }
    append_offset_ = pos;
}

void
SweepStore::indexInsert(uint64_t key, const Entry &entry)
{
    const auto it = index_.find(key);
    if (it == index_.end()) {
        index_.emplace(key, entry);
        order_.push_back(key);
        return;
    }
    // A healthy row always supersedes; a marker only supersedes
    // another marker (the merge/retry_failed rule).
    if (!entry.marker || it->second.marker)
        it->second = entry;
}

// ------------------------------------------------------------------
// Readers
// ------------------------------------------------------------------

size_t
SweepStore::cellCount() const
{
    std::shared_lock<std::shared_mutex> lk(index_mutex_);
    return index_.size();
}

size_t
SweepStore::markerCount() const
{
    std::shared_lock<std::shared_mutex> lk(index_mutex_);
    size_t n = 0;
    for (const auto &[key, entry] : index_)
        n += entry.marker ? 1 : 0;
    return n;
}

bool
SweepStore::containsKey(const std::string &key) const
{
    uint64_t k = 0;
    if (!parseCellKey(key, k))
        return false;
    std::shared_lock<std::shared_mutex> lk(index_mutex_);
    return index_.count(k) != 0;
}

bool
SweepStore::markerFor(const std::string &key) const
{
    uint64_t k = 0;
    if (!parseCellKey(key, k))
        return false;
    std::shared_lock<std::shared_mutex> lk(index_mutex_);
    const auto it = index_.find(k);
    return it != index_.end() && it->second.marker;
}

std::string
SweepStore::readLineAt(const Entry &entry) const
{
    std::string line(entry.length, '\0');
    size_t done = 0;
    while (done < entry.length) {
        const ssize_t n =
            ::pread(fd_, line.data() + done, entry.length - done,
                    static_cast<off_t>(entry.offset + done));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw std::runtime_error("SweepStore: read from '" + path_ +
                                     "' failed: " +
                                     std::strerror(errno));
        }
        if (n == 0)
            throw std::runtime_error("SweepStore: short read from '" +
                                     path_ + "'");
        done += static_cast<size_t>(n);
    }
    return line;
}

std::string
SweepStore::lineFor(const std::string &key) const
{
    uint64_t k = 0;
    std::shared_lock<std::shared_mutex> lk(index_mutex_);
    const auto it =
        parseCellKey(key, k) ? index_.find(k) : index_.end();
    if (it == index_.end())
        throw std::invalid_argument("SweepStore: no stored line for key " +
                                    key + " in '" + path_ + "'");
    return readLineAt(it->second);
}

std::vector<storefmt::StoreCell>
SweepStore::cells() const
{
    std::shared_lock<std::shared_mutex> lk(index_mutex_);
    std::vector<storefmt::StoreCell> out;
    out.reserve(order_.size());
    for (const uint64_t key : order_) {
        const auto it = index_.find(key);
        if (it == index_.end())
            continue;
        storefmt::StoreCell cell;
        cell.line = readLineAt(it->second);
        if (!storefmt::parseChecksummedLine(cell.line, cell.key,
                                            cell.label, cell.row))
            continue; // verified at load; unreachable in practice
        cell.marker = it->second.marker;
        out.push_back(std::move(cell));
    }
    return out;
}

// ------------------------------------------------------------------
// Writer: group commit
// ------------------------------------------------------------------

void
SweepStore::drainWritersLocked(std::unique_lock<std::mutex> &lk)
{
    writer_cv_.wait(lk, [this] {
        return !writer_active_ && pending_.empty();
    });
}

void
SweepStore::invalidateHeaderIndexLocked()
{
    if (!header_index_valid_)
        return;
    // The log is about to grow past the index segment: truncate the
    // segment off and withdraw the header pointer first, so a crash
    // at any point leaves a store whose open full-scans the log.
    if (::ftruncate(fd_, static_cast<off_t>(append_offset_)) != 0)
        throw std::runtime_error("SweepStore: cannot truncate '" +
                                 path_ + "': " + std::strerror(errno));
    writeAllAt(fd_, encodeHeader(0, 0, 0), 0, path_);
    fsyncFd(fd_, path_);
    header_index_valid_ = false;
    {
        std::lock_guard<std::mutex> sg(stats_mutex_);
        ++stats_.fsyncs;
    }
    globals().fsyncs.fetch_add(1, std::memory_order_relaxed);
}

void
SweepStore::appendLine(const std::string &line)
{
    if (mode_ != Mode::append)
        throw std::logic_error("SweepStore: '" + path_ +
                               "' is open read-only");
    std::string key_s, label;
    SweepRow row;
    if (!storefmt::parseChecksummedLine(line, key_s, label, row))
        throw std::invalid_argument(
            "SweepStore: refusing to append a corrupt cell line to '" +
            path_ + "'");
    Pending p;
    p.record = detail::encodeRecord(detail::kRecordTypeCell, line);
    if (!parseCellKey(key_s, p.key))
        throw std::invalid_argument("SweepStore: cell key '" + key_s +
                                    "' is not a 0x... content key");
    p.length = static_cast<uint32_t>(line.size());
    p.marker = row.has("quarantined");

    std::unique_lock<std::mutex> lk(writer_mutex_);
    if (!io_error_.empty())
        throw std::runtime_error(io_error_);
    invalidateHeaderIndexLocked();
    p.seq = ++enqueue_seq_;
    const uint64_t my_seq = p.seq;
    pending_.push_back(std::move(p));

    while (durable_seq_ < my_seq) {
        if (!io_error_.empty()) {
            // A leader hit a write/fsync failure. Our record was
            // never persisted, whether it sat in that failed batch or
            // is still queued here: the error is sticky, so no later
            // leader will drain the queue. Withdraw our queued copy
            // (so drainWritersLocked / close can finish) and fail.
            pending_.erase(
                std::remove_if(pending_.begin(), pending_.end(),
                               [my_seq](const Pending &q) {
                                   return q.seq == my_seq;
                               }),
                pending_.end());
            writer_cv_.notify_all();
            throw std::runtime_error(io_error_);
        }
        if (!writer_active_ && !pending_.empty()) {
            // Become the commit leader: take the whole pending batch,
            // write it with one pwrite + one fsync, then install the
            // index entries and wake every member.
            writer_active_ = true;
            std::vector<Pending> batch;
            batch.swap(pending_);
            const uint64_t base = append_offset_;
            const uint64_t top = batch.back().seq;
            std::string buf;
            std::vector<std::pair<uint64_t, Entry>> entries;
            entries.reserve(batch.size());
            uint64_t off = base;
            for (const Pending &b : batch) {
                Entry e;
                e.offset = off + 12; // payload after the record head
                e.length = b.length;
                e.marker = b.marker;
                entries.emplace_back(b.key, e);
                off += b.record.size();
                buf += b.record;
            }
            lk.unlock();
            try {
                // The batch-commit crash window (ENOSPC, dying disk):
                // a seeded fault here must fail every batched
                // appender, never just the leader.
                faultProbe("store.append");
                writeAllAt(fd_, buf, base, path_);
                fsyncFd(fd_, path_);
            } catch (const std::exception &e) {
                // Durability failed for the whole batch. Leave
                // durable_seq_ where it is so every waiting member
                // (batched or still queued) wakes into the io_error_
                // branch above and throws — nobody may return success
                // for a record that never reached the disk.
                lk.lock();
                io_error_ = e.what();
                writer_active_ = false;
                writer_cv_.notify_all();
                throw;
            }
            {
                std::unique_lock<std::shared_mutex> ix(index_mutex_);
                for (const auto &[k, e] : entries)
                    indexInsert(k, e);
            }
            lk.lock();
            append_offset_ = base + buf.size();
            durable_seq_ = top;
            writer_active_ = false;
            {
                std::lock_guard<std::mutex> sg(stats_mutex_);
                stats_.appends += batch.size();
                stats_.bytes_appended += buf.size();
                ++stats_.fsyncs;
                ++stats_.commit_batches;
                stats_.max_commit_batch = std::max(
                    stats_.max_commit_batch,
                    static_cast<uint64_t>(batch.size()));
            }
            GlobalAtomics &g = globals();
            g.appends.fetch_add(batch.size(),
                                std::memory_order_relaxed);
            g.bytes_appended.fetch_add(buf.size(),
                                       std::memory_order_relaxed);
            g.fsyncs.fetch_add(1, std::memory_order_relaxed);
            g.commit_batches.fetch_add(1, std::memory_order_relaxed);
            bumpMax(g.max_commit_batch, batch.size());
            writer_cv_.notify_all();
        } else {
            writer_cv_.wait(lk);
        }
    }
}

void
SweepStore::writeIndexSegmentLocked()
{
    std::string payload;
    {
        std::shared_lock<std::shared_mutex> ix(index_mutex_);
        putU64(payload, append_offset_);
        putU64(payload, static_cast<uint64_t>(index_.size()));
        for (const uint64_t key : order_) {
            const auto it = index_.find(key);
            if (it == index_.end())
                continue;
            putU64(payload, key);
            putU64(payload, it->second.offset);
            putU32(payload, it->second.length);
            payload.push_back(it->second.marker ? '\1' : '\0');
        }
    }
    const std::string rec =
        detail::encodeRecord(detail::kRecordTypeIndex, payload);
    writeAllAt(fd_, rec, append_offset_, path_);
    fsyncFd(fd_, path_);
    writeAllAt(fd_,
               encodeHeader(append_offset_, cellCount(),
                            append_offset_),
               0, path_);
    fsyncFd(fd_, path_);
    header_index_valid_ = true;
    {
        std::lock_guard<std::mutex> sg(stats_mutex_);
        stats_.fsyncs += 2;
    }
    globals().fsyncs.fetch_add(2, std::memory_order_relaxed);
}

void
SweepStore::sync()
{
    if (mode_ != Mode::append)
        return;
    std::unique_lock<std::mutex> lk(writer_mutex_);
    drainWritersLocked(lk);
    if (!io_error_.empty())
        throw std::runtime_error(io_error_);
    if (!header_index_valid_)
        writeIndexSegmentLocked();
}

// ------------------------------------------------------------------
// Compaction
// ------------------------------------------------------------------

void
SweepStore::compact()
{
    if (mode_ != Mode::append)
        throw std::logic_error("SweepStore: cannot compact read-only '" +
                               path_ + "'");
    std::unique_lock<std::mutex> lk(writer_mutex_);
    drainWritersLocked(lk);
    if (!io_error_.empty())
        throw std::runtime_error(io_error_);

    // Snapshot the surviving entries (latest per key, healthy over
    // marker — exactly what the index holds) in first-seen order.
    struct Keep
    {
        uint64_t key;
        std::string line;
        bool marker;
    };
    std::vector<Keep> keep;
    {
        std::shared_lock<std::shared_mutex> ix(index_mutex_);
        keep.reserve(order_.size());
        for (const uint64_t key : order_) {
            const auto it = index_.find(key);
            if (it != index_.end())
                keep.push_back({key, readLineAt(it->second),
                                it->second.marker});
        }
    }

    // Build the replacement segment in memory: header + name + one
    // record per key + a fresh index, fully formed before the swap.
    std::string out = encodeHeader(0, 0, 0);
    out += detail::encodeRecord(detail::kRecordTypeName, sweep_name_);
    std::unordered_map<uint64_t, Entry> new_index;
    std::vector<uint64_t> new_order;
    new_index.reserve(keep.size());
    new_order.reserve(keep.size());
    for (const Keep &k : keep) {
        Entry e;
        e.offset = out.size() + 12; // payload starts after the 12-byte
        e.length = static_cast<uint32_t>(k.line.size()); // record head
        e.marker = k.marker;
        new_index.emplace(k.key, e);
        new_order.push_back(k.key);
        out += detail::encodeRecord(detail::kRecordTypeCell, k.line);
    }
    const uint64_t data_end = out.size();
    std::string payload;
    putU64(payload, data_end);
    putU64(payload, static_cast<uint64_t>(new_order.size()));
    for (const uint64_t key : new_order) {
        const Entry &e = new_index.at(key);
        putU64(payload, key);
        putU64(payload, e.offset);
        putU32(payload, e.length);
        payload.push_back(e.marker ? '\1' : '\0');
    }
    out += detail::encodeRecord(detail::kRecordTypeIndex, payload);
    const std::string header = encodeHeader(
        data_end, static_cast<uint64_t>(new_order.size()), data_end);
    out.replace(0, header.size(), header);

    const std::string tmp = path_ + ".compact.tmp";
    {
        const int tfd = ::open(tmp.c_str(),
                               O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                               0644);
        if (tfd < 0)
            throw std::runtime_error("SweepStore: cannot write '" +
                                     tmp + "': " +
                                     std::strerror(errno));
        try {
            writeAllAt(tfd, out, 0, tmp);
            fsyncFd(tfd, tmp);
        } catch (...) {
            ::close(tfd);
            throw;
        }
        ::close(tfd);
    }
    // The crash window the compaction tests target: the replacement
    // segment is complete on disk but the store is still the old one.
    faultProbe("store.compact");
    if (std::rename(tmp.c_str(), path_.c_str()) != 0)
        throw std::runtime_error("SweepStore: cannot rename '" + tmp +
                                 "' over '" + path_ + "'");
    // The rename lives in the directory: fsync it, or a power loss
    // can legally resurrect the pre-compaction segment.
    storefmt::fsyncParentDir(path_);

    const int nfd =
        ::open(path_.c_str(), O_RDWR | O_CLOEXEC);
    if (nfd < 0)
        throw std::runtime_error("SweepStore: cannot reopen '" + path_ +
                                 "' after compaction: " +
                                 std::strerror(errno));
    {
        std::unique_lock<std::shared_mutex> ix(index_mutex_);
        ::close(fd_);
        fd_ = nfd;
        index_ = std::move(new_index);
        order_ = std::move(new_order);
    }
    append_offset_ = data_end;
    header_index_valid_ = true;
    {
        std::lock_guard<std::mutex> sg(stats_mutex_);
        ++stats_.compactions;
        ++stats_.fsyncs;
    }
    GlobalAtomics &g = globals();
    g.compactions.fetch_add(1, std::memory_order_relaxed);
    g.fsyncs.fetch_add(1, std::memory_order_relaxed);
}

StoreStats
SweepStore::stats() const
{
    StoreStats out;
    {
        std::lock_guard<std::mutex> sg(stats_mutex_);
        out = stats_;
    }
    std::shared_lock<std::shared_mutex> ix(index_mutex_);
    out.cells = index_.size();
    for (const auto &[key, entry] : index_)
        out.markers += entry.marker ? 1 : 0;
    return out;
}

// ------------------------------------------------------------------
// JSON conversion
// ------------------------------------------------------------------

ConvertReport
exportStoreToJson(const std::string &store_path,
                  const std::string &json_path)
{
    SweepStore store(store_path, SweepStore::Mode::read_only);
    std::vector<std::string> lines;
    for (const storefmt::StoreCell &cell : store.cells())
        lines.push_back(cell.line);
    storefmt::writeJsonStore(json_path, store.sweepName(), lines);
    ConvertReport report;
    report.cells = lines.size();
    return report;
}

ConvertReport
importJsonToStore(const std::string &json_path,
                  const std::string &store_path)
{
    const storefmt::StoreScan scan = storefmt::readStoreCells(json_path);
    if (!scan.found)
        throw std::invalid_argument(
            "importJsonToStore: cannot read JSON store '" + json_path +
            "'");
    ConvertReport report;
    SweepStore store(store_path, SweepStore::Mode::append,
                     scan.sweep_name.empty() ? "sweep"
                                             : scan.sweep_name);
    for (const storefmt::StoreCell &cell : scan.cells) {
        if (store.containsKey(cell.key) &&
            !supersedesStoredLine(
                cell.key,
                {store.lineFor(cell.key), store.markerFor(cell.key),
                 store_path},
                {cell.line, cell.marker, json_path})) {
            ++report.skipped;
            continue;
        }
        store.appendLine(cell.line);
        ++report.cells;
    }
    store.sync();
    return report;
}

} // namespace store
} // namespace eftvqa
