/**
 * @file
 * The sweep sink: SweepSink over the append-only binary SweepStore,
 * and the factory every sweep driver opens it through.
 *
 * contains()/storedRow() resolve against the SweepStore index,
 * write() appends one O(row) group-committed record per freshly
 * executed cell, and the resume / quarantine / retry_failed contracts
 * hold: reserved row fields are rejected, every write crosses the
 * "sink.write" fault probe, and a healthy row supersedes a quarantine
 * marker. `vqastore export` on the resulting file writes the stored
 * cell lines into a JSON store verbatim.
 */

#ifndef EFTVQA_STORE_SINK_HPP
#define EFTVQA_STORE_SINK_HPP

#include <memory>
#include <string>

#include "store/sweep_store.hpp"
#include "vqa/sweep.hpp"

namespace eftvqa {
namespace store {

/** SweepSink over an append-only binary SweepStore. */
class BinarySweepSink : public SweepSink
{
  public:
    BinarySweepSink(std::string path, std::string sweep_name);

    bool contains(const SweepCell &cell) const override;
    SweepRow storedRow(const SweepCell &cell) const override;
    bool quarantined(const SweepCell &cell) const override;
    CellOutcome storedOutcome(const SweepCell &cell) const override;
    void write(const SweepCell &cell, const SweepRow &row) override;
    void writeQuarantined(const SweepCell &cell,
                          const CellOutcome &outcome) override;
    void finish() override;

    /** Cells the store already held at open (resume candidates,
     *  markers included). */
    size_t loadedCells() const { return loaded_cells_; }
    /** Quarantine markers among the loaded cells. */
    size_t quarantinedCells() const { return loaded_markers_; }
    /** Records the open scan rejected (bad checksum / torn tail). */
    size_t corruptLines() const { return corrupt_records_; }

    SweepStore &underlyingStore() { return store_; }

  private:
    void append(const SweepCell &cell, const SweepRow &row);

    SweepStore store_;
    size_t loaded_cells_ = 0;
    size_t loaded_markers_ = 0;
    size_t corrupt_records_ = 0;
};

/**
 * Open the sweep sink for @p path: a BinarySweepSink over the store
 * there, created if missing. A file that is not a binary store, such
 * as a JSON store, is rejected with an error naming `vqastore import`.
 */
std::unique_ptr<SweepSink> makeSweepSink(const std::string &path,
                                         const std::string &sweep_name);

} // namespace store
} // namespace eftvqa

#endif // EFTVQA_STORE_SINK_HPP
