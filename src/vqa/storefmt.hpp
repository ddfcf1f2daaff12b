/**
 * @file
 * The sweep-store cell-line format.
 *
 * One cell, one line: a flat JSON object carrying "key"/"label" plus
 * the row fields (doubles in round-trip form) and a trailing "crc" —
 * the FNV-1a hash of the exact serialized payload before it. Three
 * consumers share these helpers:
 *
 *  - the binary SweepStore (store/sweep_store.hpp) stores these exact
 *    bytes as its cell records, and `vqastore export`/`import` convert
 *    a store to and from the JSON file form written and read here;
 *  - ProcessPool (vqa/procpool.cpp) ships the same checksummed line
 *    as the "payload" of its ok-frames, so a result crosses the
 *    process boundary with its integrity check attached;
 *  - mergeSweepStores() combines partial stores line-for-line, which
 *    only stays byte-exact because every consumer agrees on these
 *    exact bytes.
 *
 * parseCellPayload() doubles as the parser for the supervisor/worker
 * wire frames: frames are flat JSON objects of the same shape (the
 * frame fields land in the SweepRow, "key" is routed out).
 */

#ifndef EFTVQA_VQA_STOREFMT_HPP
#define EFTVQA_VQA_STOREFMT_HPP

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "vqa/sweep.hpp"

namespace eftvqa {
namespace storefmt {

/** FNV-1a over @p text (the store checksum). */
uint64_t fnv1a64(std::string_view text);

/** "0x%016llx" of @p v (store keys and crcs print this way). */
std::string hex64(uint64_t v);

/** The exact payload the checksum covers: the one-line cell object
 *  without its trailing crc field. */
std::string serializeCellPayload(const std::string &key,
                                 const std::string &label,
                                 const SweepRow &row);

/** Append the payload's own FNV-1a as the final "crc" field. */
std::string checksummedCellLine(const std::string &payload);

/**
 * Parse a flat one-line JSON object into (key, label, row): string /
 * number / bool / null values only; "key" and "label" are routed out
 * of the row. Returns false on anything else. This is also the frame
 * parser for the ProcessPool wire protocol.
 */
bool parseCellPayload(std::string_view payload, std::string &key,
                      std::string &label, SweepRow &row);

/**
 * Verify and parse one stored cell line: the object must be intact
 * (a torn tail from a mid-write kill fails here), carry a crc, and
 * the crc must match the re-hashed payload. Returns false on any
 * integrity failure — the caller quarantines the raw line.
 */
bool parseChecksummedLine(const std::string &object_text,
                          std::string &key, std::string &label,
                          SweepRow &row);

/** One verified cell line read back from a store file. */
struct StoreCell
{
    std::string key;
    std::string label;
    SweepRow row;
    std::string line; ///< the exact checksummed object bytes on disk
    bool marker = false; ///< quarantine marker rather than results
};

/** Everything readStoreCells() found in one store file. */
struct StoreScan
{
    bool found = false; ///< the file existed and was readable
    std::string sweep_name;
    std::vector<StoreCell> cells;
    std::vector<std::string> corrupt; ///< rejected raw lines, in order
};

/**
 * Scan a JSON store file (a `vqastore export`, or a store written
 * before the binary engine): every line that verifies lands in cells
 * (in file order), every integrity failure in corrupt. A summary
 * block is ignored. Never throws on content — a missing file just
 * reports found == false.
 */
StoreScan readStoreCells(const std::string &path);

/** Reject rows that use a reserved cell-metadata field name ("key" /
 *  "label" / "crc" / "quarantined"); @p who prefixes the error. */
void validateRowFields(const std::string &who, const SweepRow &row);

/**
 * Write a JSON store file: `{"sweep": name, "cells": [lines...]}`
 * atomically (tmp + rename). @p lines are emitted verbatim — they
 * must be checksummedCellLine() bytes, which is what keeps
 * `vqastore export` byte-identical to the stored lines.
 */
void writeJsonStore(const std::string &path,
                    const std::string &sweep_name,
                    const std::vector<std::string> &lines);

/** fsync the directory containing @p path, so a rename just made into
 *  it is durable across power loss (the rename itself lives in the
 *  directory, not the file). Every atomic tmp+rename store swap calls
 *  this after the rename. Tolerates filesystems that reject directory
 *  fsync (EINVAL/EROFS); throws on real io failure. */
void fsyncParentDir(const std::string &path);

} // namespace storefmt
} // namespace eftvqa

#endif // EFTVQA_VQA_STOREFMT_HPP
