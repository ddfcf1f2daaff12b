#include "store/sink.hpp"

#include "vqa/fault.hpp"
#include "vqa/storefmt.hpp"

namespace eftvqa {
namespace store {

BinarySweepSink::BinarySweepSink(std::string path,
                                 std::string sweep_name)
    : store_(std::move(path), SweepStore::Mode::append,
             std::move(sweep_name))
{
    const StoreStats stats = store_.stats();
    loaded_cells_ = stats.cells;
    loaded_markers_ = stats.markers;
    corrupt_records_ = static_cast<size_t>(stats.corruptLines());
}

bool
BinarySweepSink::contains(const SweepCell &cell) const
{
    return store_.containsKey(cell.keyString());
}

SweepRow
BinarySweepSink::storedRow(const SweepCell &cell) const
{
    const std::string key = cell.keyString();
    if (!store_.containsKey(key))
        throw std::invalid_argument(
            "BinarySweepSink: no stored row for cell '" + cell.label +
            "'");
    std::string stored_key, label;
    SweepRow row;
    const std::string line = store_.lineFor(key);
    if (!storefmt::parseChecksummedLine(line, stored_key, label, row))
        throw std::runtime_error(
            "BinarySweepSink: stored line for cell '" + cell.label +
            "' failed verification");
    return row;
}

bool
BinarySweepSink::quarantined(const SweepCell &cell) const
{
    return store_.markerFor(cell.keyString());
}

CellOutcome
BinarySweepSink::storedOutcome(const SweepCell &cell) const
{
    if (!quarantined(cell))
        return {};
    return outcomeFromQuarantineRow(storedRow(cell));
}

void
BinarySweepSink::write(const SweepCell &cell, const SweepRow &row)
{
    storefmt::validateRowFields("BinarySweepSink", row);
    append(cell, row);
}

void
BinarySweepSink::writeQuarantined(const SweepCell &cell,
                                  const CellOutcome &outcome)
{
    append(cell, quarantineRowFor(outcome));
}

void
BinarySweepSink::append(const SweepCell &cell, const SweepRow &row)
{
    const std::string line =
        storefmt::checksummedCellLine(storefmt::serializeCellPayload(
            cell.keyString(), cell.label, row));
    // The crash window the store fault matrix targets: a fault here
    // means the row was never persisted and the cell re-executes.
    faultProbe("sink.write");
    store_.appendLine(line);
}

void
BinarySweepSink::finish()
{
    // Persist the index segment so the next open (resume) takes the
    // fast path.
    store_.sync();
}

std::unique_ptr<SweepSink>
makeSweepSink(const std::string &path, const std::string &sweep_name)
{
    return std::make_unique<BinarySweepSink>(path, sweep_name);
}

} // namespace store
} // namespace eftvqa
