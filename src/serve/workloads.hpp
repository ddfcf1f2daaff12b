/**
 * @file
 * Named sweep workloads: every sweep figure of the paper.
 *
 * A Workload is a fully built SweepSpec plus its cell function — the
 * exact pair a figure driver hands to SweepRunner::run. The builders
 * here are the single source of truth for the five sweep figures
 * (fig12-15 and the section 4.4 Rz/CNOT ablation): every grid,
 * budget, seed and key_salt is decided here. The bench drivers build
 * them by name to run locally, and vqad builds the same names to
 * serve the same cells over the socket, so a cell's content key — and
 * therefore its result bytes — cannot diverge between the two paths.
 * That shared construction is what makes the daemon's determinism
 * contract ("bytes from the daemon == bytes from a local run")
 * structural rather than aspirational.
 *
 * WorkloadCatalog is the daemon's dispatch table (the zfs_ioctl
 * idiom: a named vector of entries, each validated before any work is
 * admitted). Entries are keyed by sweep name and parameterized by the
 * driver mode string ("smoke" / "default" / "full"), which selects
 * the same grid sizes and budgets the CLI flags do.
 */

#ifndef EFTVQA_SERVE_WORKLOADS_HPP
#define EFTVQA_SERVE_WORKLOADS_HPP

#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "vqa/sweep.hpp"

namespace eftvqa {
namespace serve {

/** One runnable sweep: the spec that expands into content-keyed cells
 *  and the function every cell runs. knobs are the driver's `--out`
 *  header fields, written in field order after "bench" and "mode":
 *  the builder's own constants (a trajectory count, a budget), so the
 *  drivers never recompute — and never drift from — what it chose. */
struct Workload
{
    SweepSpec spec;
    SweepCellFn fn;
    SweepRow knobs;
};

/** Builds a Workload for a driver mode ("smoke"/"default"/"full"). */
using WorkloadFactory = std::function<Workload(const std::string &mode)>;

/** True iff @p mode is a mode string the builders accept. */
bool validWorkloadMode(std::string_view mode);

/**
 * Fig 12 (gamma(pQEC/NISQ) at scale): Clifford-state VQE with the
 * genetic optimizer on stabilizer trajectories. Each builder throws
 * std::invalid_argument on an unknown mode.
 */
Workload fig12Workload(const std::string &mode);

/** Fig 13 (gamma(pQEC/NISQ), density-matrix VQE): physics models over
 *  the paper's coupling axis plus the molecule benchmarks. */
Workload fig13Workload(const std::string &mode);

/** Fig 14 (blocked_all_to_all vs FCHE under pQEC). */
Workload fig14Workload(const std::string &mode);

/** Fig 15 (VQE convergence with and without VarSaw, J=1). */
Workload fig15Workload(const std::string &mode);

/** Section 4.4: each ansatz family's CNOT-to-Rz ratio per size (the
 *  same analytic grid in every mode). */
Workload ablationRzCnotWorkload(const std::string &mode);

/**
 * Name -> factory dispatch table. Lookup failures are structured
 * ("unknown workload" errors on the wire), never fatal; build()
 * validates the spec before returning, so a workload that expands is
 * a workload the daemon can admit cells from.
 */
class WorkloadCatalog
{
  public:
    /** Register @p factory under @p name (replaces an existing entry —
     *  tests use this to inject synthetic workloads). */
    void registerWorkload(std::string name, WorkloadFactory factory);

    bool has(std::string_view name) const;

    /** Build @p name for @p mode (validates the spec). Throws
     *  std::invalid_argument on an unknown name, an invalid mode, or
     *  a spec that fails validation. */
    Workload build(const std::string &name, const std::string &mode) const;

    /** Registered workload names, sorted. */
    std::vector<std::string> names() const;

    /** The built-in table: the five sweep figures under their sweep
     *  names. */
    static WorkloadCatalog builtin();

  private:
    std::map<std::string, WorkloadFactory, std::less<>> factories_;
};

} // namespace serve
} // namespace eftvqa

#endif // EFTVQA_SERVE_WORKLOADS_HPP
