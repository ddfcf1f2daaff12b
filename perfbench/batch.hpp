/**
 * @file
 * The round structure the two batch workloads share: each round builds
 * a fresh SweepRunner and binary store (set-up), runs the sweep (the
 * timed phase), then checks the round. Every round repeats the same
 * inputs, so its rows must be bit-identical to round 0's.
 */

#ifndef EFTBENCH_BATCH_HPP
#define EFTBENCH_BATCH_HPP

#include <functional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "vqa/sweep.hpp"

namespace eftbench {

/** A cell function that also receives the sweep span (the parent of
 *  its cell span in a traced round). */
using BatchCellFn = std::function<eftvqa::SweepRow(
    const eftvqa::SweepCell &, eftvqa::ExperimentSession &, long long)>;

struct BatchRounds
{
    std::string name;
    std::function<eftvqa::SweepSpec()> spec;

    std::vector<eftvqa::SweepCell> cells; ///< round 0's expansion
    std::vector<eftvqa::SweepRow> rows;   ///< round 0's rows
    std::vector<double> setup_s, wall_s;
    size_t cache_hits = 0, cache_lookups = 0, rounds = 0;

    /** Round 0's store, kept for the traced run's store layer. */
    std::string keptStore(const Run &run) const;

    /** Run one round; false when it failed (already counted). */
    bool round(Run &run, size_t r, bool traced, const BatchCellFn &fn);

    /** setup_s, wall_s, evals_per_s and requests_per_s. */
    void metrics(Run &run, double energies_per_round) const;

    /** Traced-run tail: grid expansion time, cache ratios, store layer. */
    void traceTail(Run &run) const;
};

} // namespace eftbench

#endif // EFTBENCH_BATCH_HPP
