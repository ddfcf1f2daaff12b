/**
 * @file
 * Declarative grid sweeps over experiment sessions.
 *
 * PR 4 made a single (Hamiltonian, ansatz) experiment declarative
 * (vqa/experiment.hpp); the paper's figures are *sweeps* — fig12–15
 * each used to hand-roll `for (family) for (n) for (coupling)` loops
 * around ExperimentSession, re-inventing cell naming, JSON emission
 * and skip/resume logic per driver. This header is the top of that
 * stack:
 *
 *  - SweepSpec — the grid: a Hamiltonian family axis (Ising /
 *    Heisenberg / molecule factories from src/ham/), a size axis, a
 *    coupling axis, an ansatz factory, the RegimeSpecs every cell
 *    runs under, and a per-cell override hook for knobs that depend
 *    on the grid point (seeds, eval regimes). validate() rejects bad
 *    grids with errors naming the offending axis, including a
 *    configurable max_cells guard so a typo'd axis cannot silently
 *    enqueue thousands of cells.
 *  - SweepCell — one expanded grid point: its label, its fully built
 *    ExperimentSpec, and a machine-independent content-hash key()
 *    over everything that affects the cell's results. The key is the
 *    resume identity: same spec -> same keys on any machine.
 *  - SweepRunner — expands the grid once, then run(fn, sink) executes
 *    every cell through its own ExperimentSession on a WorkerPool
 *    (vqa/executor.hpp). Cells are scheduled asynchronously but
 *    results are bit-identical to executing them in serial cell
 *    order: cells are independent, and the one sweep-level
 *    SharedEnergyCache (an LruCache, common/lru.hpp) every caching
 *    session attaches to only ever serves hits that equal what
 *    re-evaluation would produce (the session purity contract), so
 *    identical (Hamiltonian, regime, circuit) work is paid once per
 *    sweep regardless of which cell runs first. cache_capacity > 0
 *    means one sweep cache, 0 means none; caching on/off is part of
 *    every cell's key, because uncached cells draw fresh samples.
 *  - SweepSink — streaming result consumer; store::BinarySweepSink
 *    (store/sink.hpp) over the append-only SweepStore is the one
 *    implementation. Rerunning against an existing store skips every
 *    cell whose key it already holds and carries the stored row
 *    through bit-identically, so an interrupted sweep resumes where
 *    it died; only freshly executed cells are written. Every stored
 *    line carries an FNV-1a checksum of its payload; corrupt or torn
 *    records are counted and skipped on load and their cells
 *    re-executed instead of trusted or fatal.
 *  - FaultPolicy / CellOutcome — per-cell failure containment
 *    (vqa/fault.hpp is the substrate). Under FaultPolicy::isolate a
 *    failing cell is retried on a deterministic content-key-derived
 *    backoff schedule, bounded by a cooperative soft deadline, and —
 *    if it still fails — recorded in the sink as a quarantined row
 *    while every healthy cell finishes; quarantined cells are skipped
 *    on resume unless SweepSpec::retry_failed re-executes them.
 *    Determinism contract: retries re-run a fresh session from
 *    scratch, so surviving cells' rows are byte-identical to a
 *    fault-free run.
 *
 *  - IsolationMode — where cells execute. `process` runs each cell in
 *    a forked worker under the vqa/procpool.hpp watchdog supervisor,
 *    so crashes, OOM kills and wedged cells are contained and fed
 *    through the same retry/quarantine machinery; surviving rows stay
 *    byte-identical to an in-process run.
 *  - mergeSweepStores — merges N partial binary stores (cells farmed
 *    across machines) into one: union by key, quarantine markers
 *    propagate until healed, byte conflicts fail loudly,
 *    order-independent and idempotent.
 *
 * A figure driver shrinks to spec construction + a cell function +
 * sink choice; the ROADMAP's process-level farming item distributes
 * exactly this API (cells are self-contained and content-keyed).
 */

#ifndef EFTVQA_VQA_SWEEP_HPP
#define EFTVQA_VQA_SWEEP_HPP

#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "ham/molecule.hpp"
#include "vqa/experiment.hpp"
#include "vqa/fault.hpp"

namespace eftvqa {

/** Hamiltonian family axis (the factories of src/ham/). */
enum class HamFamily
{
    Ising,      ///< isingHamiltonian(n, j)
    Heisenberg, ///< heisenbergHamiltonian(n, j)
    Molecule,   ///< moleculeHamiltonian(spec) per SweepSpec::molecules
};

/** "ising" / "heisenberg" / "molecule". */
const char *hamFamilyName(HamFamily family);

/**
 * One grid point, handed to the per-cell override hook and carried in
 * the expanded cell. For Ising/Heisenberg cells, (qubits, coupling)
 * come from the size/coupling axes; Molecule cells take both from
 * their MoleculeSpec (coupling = bond length).
 */
struct SweepPoint
{
    size_t index = 0; ///< position in serial cell order
    HamFamily family = HamFamily::Ising;
    int qubits = 0;
    double coupling = 0.0;
    std::optional<MoleculeSpec> molecule;
};

/** Ansatz template for an @p n_qubits cell (e.g. fcheAnsatz). */
using AnsatzFactory = std::function<Circuit(int n_qubits)>;

/** Per-cell override hook: runs after the cell's base ExperimentSpec
 *  is assembled and before it is validated/keyed, so grid-dependent
 *  knobs (GA seeds, eval-regime seeds) land in the cell key. */
using CellCustomizer =
    std::function<void(const SweepPoint &, ExperimentSpec &)>;

/** One expanded cell: grid point, display label, the ExperimentSpec a
 *  session will execute, and the content-hash resume key. */
struct SweepCell
{
    SweepPoint point;
    std::string label; ///< "ising/n16/j0.25"-style, for logs and sinks
    ExperimentSpec experiment;

    /**
     * Machine-independent content hash of everything that affects the
     * cell's results: the grid point, Hamiltonian::contentHash,
     * Circuit::contentHash of the ansatz, every regime's name and
     * RegimeSpec::key, the GA knobs and the result-affecting engine
     * toggles. Two cells with equal keys compute the same rows; the
     * resume contract skips a cell iff its key is already in the sink.
     */
    uint64_t key() const { return content_key; }

    /** key() as the "0x..." string sinks store. */
    std::string keyString() const;

    uint64_t content_key = 0;
};

/**
 * One result row: ordered named scalar fields (double / integer /
 * string / bool). Rows stream through sinks and come back verbatim on
 * resume — doubles are carried bit-identically.
 */
class SweepRow
{
  public:
    using Value = std::variant<double, long long, std::string, bool>;

    SweepRow &set(std::string name, double v);
    SweepRow &set(std::string name, long long v);
    SweepRow &set(std::string name, int v);
    SweepRow &set(std::string name, size_t v);
    SweepRow &set(std::string name, std::string v);
    SweepRow &set(std::string name, const char *v);
    SweepRow &set(std::string name, bool v);

    bool has(std::string_view name) const;
    /** Numeric field as double (accepts an integer field). */
    double num(std::string_view name) const;
    long long integer(std::string_view name) const;
    const std::string &str(std::string_view name) const;
    bool flag(std::string_view name) const;

    const std::vector<std::pair<std::string, Value>> &fields() const
    {
        return fields_;
    }

    /** Exact equality: same fields, same order, same types, same bits
     *  (the resume/determinism tests' comparator). */
    bool operator==(const SweepRow &other) const;

  private:
    const Value &at(std::string_view name) const;

    std::vector<std::pair<std::string, Value>> fields_;
};

/** Where SweepRunner::run executes cells. */
enum class IsolationMode
{
    /** Cells run on threads of this process (the historical and
     *  default behavior). */
    in_process,
    /** Cells run in forked worker processes under a ProcessPool
     *  watchdog supervisor (vqa/procpool.hpp): a SIGSEGV, an OOM kill
     *  or a wedged OpenMP region takes down one worker, not the
     *  sweep. Surviving rows and healed stores stay byte-identical to
     *  an in-process fault-free run. Requires FaultPolicy::isolate. */
    process,
};

/** "in_process" / "process". */
const char *isolationModeName(IsolationMode mode);

/** How SweepRunner::run contains cell failures. */
enum class FaultPolicy
{
    /** First cell error stops scheduling and rethrows after the join
     *  (the historical behavior, and the default). */
    fail_fast,
    /** Every cell completes with a structured CellOutcome: failures
     *  are retried per SweepSpec::cell_attempts, then quarantined in
     *  the sink; healthy cells always finish. */
    isolate,
};

/** "fail_fast" / "isolate". */
const char *faultPolicyName(FaultPolicy policy);

/**
 * How one cell ended. ok rows carry their SweepRow in the report;
 * failed cells carry the classified error instead. attempts == 0
 * means the cell was carried from the sink without executing.
 */
struct CellOutcome
{
    bool ok = true;
    ErrorCategory category = ErrorCategory::runtime;
    std::string error;       ///< what() of the final failure; empty if ok
    size_t attempts = 0;     ///< execution attempts this run
    double elapsed_ms = 0.0; ///< wall time across all attempts
};

/**
 * The marker row a quarantined cell stores in place of results:
 * {"quarantined": true, "category", "error", "attempts",
 * "elapsed_ms"}. Sinks persist it like any row, so a resumed run can
 * recognize, report and (with retry_failed) re-execute the cell.
 */
SweepRow quarantineRowFor(const CellOutcome &outcome);

/** Inverse of quarantineRowFor (missing fields keep their defaults;
 *  ok is always false). */
CellOutcome outcomeFromQuarantineRow(const SweepRow &row);

/**
 * Streaming result consumer — the type drivers hold; its one
 * implementation is store::BinarySweepSink (store/sink.hpp).
 * contains()/storedRow() implement the resume contract; write() /
 * writeQuarantined() are called once per freshly executed cell, in
 * serial cell order (carried cells are already stored); finish() runs
 * after the last cell.
 */
class SweepSink
{
  public:
    virtual ~SweepSink() = default;

    /** True when the sink already holds a row for this cell's key —
     *  the runner then skips execution and uses storedRow(). A
     *  quarantined marker counts as contained (quarantined() tells
     *  the runner which kind it found). */
    virtual bool contains(const SweepCell &cell) const = 0;

    /** Stored row for a contained cell (bit-identical to the row of
     *  the run that produced it; the marker row for a quarantined
     *  cell). */
    virtual SweepRow storedRow(const SweepCell &cell) const = 0;

    /** True when the stored entry for this cell is a quarantine
     *  marker rather than results. */
    virtual bool quarantined(const SweepCell &cell) const = 0;

    /** Outcome reconstructed from a quarantined cell's marker row
     *  (default-ok when the cell is not quarantined). */
    virtual CellOutcome storedOutcome(const SweepCell &cell) const = 0;

    /** One freshly executed cell's row. */
    virtual void write(const SweepCell &cell, const SweepRow &row) = 0;

    /** A freshly failed cell's quarantine record (only under
     *  FaultPolicy::isolate). */
    virtual void writeQuarantined(const SweepCell &cell,
                                  const CellOutcome &outcome) = 0;

    virtual void finish() = 0;
};

/** Cell worker: runs one cell through its session, returns its row.
 *  Must depend only on the cell (and the session) — the runner may
 *  execute cells in any order and on any thread. */
using SweepCellFn =
    std::function<SweepRow(const SweepCell &, ExperimentSession &)>;

/**
 * The grid. See the file comment for the axis semantics; expansion
 * order is families (as listed) x sizes x couplings — Molecule cells
 * expand over `molecules` instead of sizes x couplings — which is the
 * serial cell order results are reported in.
 */
struct SweepSpec
{
    std::string name = "sweep";

    std::vector<HamFamily> families;
    std::vector<int> sizes;          ///< qubit counts (Ising/Heisenberg)
    std::vector<double> couplings;   ///< J values (Ising/Heisenberg)
    std::vector<MoleculeSpec> molecules; ///< Molecule-family cells

    AnsatzFactory ansatz;
    std::vector<RegimeSpec> regimes; ///< base regimes of every cell
    GeneticConfig genetic;
    CellCustomizer customize; ///< per-cell overrides (seeds, regimes)

    // Session knobs forwarded into every cell's ExperimentSpec.
    /** Entries in the one SharedEnergyCache shared by every cell of
     *  the sweep: identical (Hamiltonian, regime, circuit) work is paid
     *  once per sweep. 0 runs every cell without a cache. */
    size_t cache_capacity = 4096;
    size_t executor_threads = 0; ///< per-session submit() executor

    /** Concurrent cells; 0 = a small hardware default, 1 = serial.
     *  Never changes results (cells are independent and the shared
     *  cache is pure). This and the other worker counts here are at
     *  most kMaxWorkers. */
    size_t cell_workers = 0;

    /**
     * Expansion guard: validate() rejects grids whose expanded cell
     * count exceeds this, naming the axis sizes, so a typo'd axis
     * cannot silently enqueue thousands of sessions. Raise it
     * explicitly for intentionally huge sweeps.
     */
    size_t max_cells = 512;

    /**
     * Failure containment (see FaultPolicy). fail_fast preserves the
     * historical semantics; isolate completes every cell with a
     * CellOutcome and quarantines the failures in the sink. None of
     * these knobs enter the cell key — they never change the rows a
     * healthy cell computes (the determinism-under-retry contract).
     */
    FaultPolicy fault_policy = FaultPolicy::fail_fast;

    /** Execution attempts per cell under isolate (>= 1). Each retry
     *  runs a fresh session from scratch, so a retried cell's row is
     *  bit-identical to a first-attempt success. */
    size_t cell_attempts = 1;

    /** Base of the deterministic exponential backoff between retries,
     *  in milliseconds; 0 retries immediately. The schedule derives
     *  from (cell key, attempt) — no wall-clock randomness. */
    double retry_backoff_ms = 0.0;

    /** Per-attempt soft deadline in milliseconds (0 = none), enforced
     *  cooperatively via the CancelToken the runner installs on each
     *  cell session — a runaway cell throws TimeoutError at its next
     *  engine checkpoint instead of killing its worker. */
    double cell_timeout_ms = 0.0;

    /** Resume: re-execute cells the sink holds quarantine markers for
     *  (default leaves them quarantined and carried). */
    bool retry_failed = false;

    /**
     * Where cells execute (see IsolationMode). process mode requires
     * FaultPolicy::isolate — a worker-process death is contained and
     * quarantined exactly like a thrown exception, so the retry /
     * quarantine / heal machinery and the byte-identity contract carry
     * over unchanged. Not part of the cell key: isolation never
     * changes the rows a healthy cell computes.
     */
    IsolationMode isolation = IsolationMode::in_process;

    /** Concurrent worker processes under IsolationMode::process;
     *  0 = min(4, hardware, cells). Setting it > 0 under in_process
     *  isolation is a validation error. */
    size_t process_workers = 0;

    /** Hard per-attempt deadline in milliseconds under process
     *  isolation (0 = none): the supervisor SIGKILLs a worker whose
     *  cell has run this long — the non-cooperative complement of
     *  cell_timeout_ms for cells wedged where no checkpoint can run.
     *  Watchdog kills classify as timeout. Requires process mode. */
    double cell_hard_timeout_ms = 0.0;

    /** Supervisor event log path under process isolation ("" = off):
     *  spawns, dispatches, worker deaths and watchdog kills with
     *  elapsed-ms timestamps. */
    std::string supervisor_log;

    /**
     * Mixed into every cell key. For driver-level knobs that change
     * the rows but live outside the ExperimentSpec — an optimizer
     * budget or protocol constant captured in the cell function. A
     * driver that varies such a knob (e.g. per --smoke/--full mode)
     * must fold it in here, or a cell store written under one setting
     * would silently satisfy the resume contract under another.
     */
    uint64_t key_salt = 0;

    /** Expanded cell count, without building the cells. */
    size_t cellCount() const;

    /**
     * Throws std::invalid_argument naming the offending axis/field:
     * empty name/families, missing ansatz factory, an empty or
     * non-positive size axis, an empty coupling axis, a Molecule
     * family without molecules, a zero/exceeded max_cells, zero
     * cell_attempts, retries under fail_fast, negative
     * backoff/timeout.
     */
    void validate() const;

    /** Expand the grid (validates first). Each cell's ExperimentSpec
     *  is validated too; cell-level errors are prefixed with the cell
     *  label. */
    std::vector<SweepCell> cells() const;
};

/** Outcome of SweepRunner::run. */
struct SweepReport
{
    /** One row per cell in serial cell order. A failed (quarantined)
     *  cell's slot holds its quarantine marker row. */
    std::vector<SweepRow> rows;
    /** One outcome per cell, aligned with rows. */
    std::vector<CellOutcome> outcomes;
    size_t cells = 0;
    size_t executed = 0; ///< cells actually run
    size_t skipped = 0;  ///< cells carried from the sink (resume)
    size_t failed = 0;   ///< cells quarantined (fresh or carried)
    size_t retries = 0;  ///< failed attempts that were retried
    /** Sweep-cache hit/miss deltas over this run (0 when the sweep
     *  cache is off). Cross-cell reuse shows up here. */
    size_t cache_hits = 0;
    size_t cache_misses = 0;
    /** Process-isolation stats (0 under in_process isolation). */
    size_t workers_spawned = 0;
    size_t worker_crashes = 0;
    size_t watchdog_kills = 0;
};

/**
 * Executes a SweepSpec: expands the grid once at construction, then
 * run() drives every (non-skipped) cell through its own
 * ExperimentSession — every caching session attached to one
 * sweep-level SharedEnergyCache — on a WorkerPool, writing rows to
 * the sink in serial cell order as their prefix completes. run() may
 * be called again: the cache persists across runs, so a second pass
 * is the warm cross-cell path (the sweep_cache bench block).
 */
class SweepRunner
{
  public:
    explicit SweepRunner(SweepSpec spec);

    const SweepSpec &spec() const { return spec_; }
    const std::vector<SweepCell> &cells() const { return cells_; }

    /** Execute the sweep. @p sink may be null (no streaming, no
     *  resume). Under fail_fast (default) throws the first cell error
     *  after stopping the remaining cells; under isolate every cell
     *  completes and failures land in report.outcomes / the sink's
     *  quarantine records instead. */
    SweepReport run(const SweepCellFn &fn, SweepSink *sink = nullptr);

    /** The sweep-level cache, or null when spec().cache_capacity is 0. */
    SharedEnergyCache *cache() { return cache_.get(); }

  private:
    SweepSpec spec_;
    std::vector<SweepCell> cells_;
    std::shared_ptr<SharedEnergyCache> cache_;
};

// ---------------------------------------------------------------------------
// Store merging (the ROADMAP's "farm cells out, merge stores" path)
// ---------------------------------------------------------------------------

/**
 * Two input stores hold healthy rows for the same cell key with
 * different bytes — machines that disagree about a result must fail
 * loudly, never silently pick a winner. what() names the key and both
 * source paths.
 */
class StoreMergeConflict : public std::runtime_error
{
  public:
    StoreMergeConflict(const std::string &key,
                       const std::string &path_a,
                       const std::string &path_b)
        : std::runtime_error("store merge conflict: cell key " + key +
                             " has different row bytes in '" + path_a +
                             "' and '" + path_b + "'"),
          key_(key)
    {
    }

    /** The offending cell key ("0x..."). */
    const std::string &key() const { return key_; }

  private:
    std::string key_;
};

/** One stored line for a cell key, as a merge or import sees it. */
struct StoredLine
{
    std::string line;    ///< exact checksummed bytes
    bool marker = false; ///< quarantine marker rather than results
    std::string source;  ///< store path, for conflict messages
};

/**
 * The supersede rule mergeSweepStores and store::importJsonToStore
 * share: true when @p incoming should replace @p held for cell @p key.
 * A healthy row supersedes a quarantine marker, never the reverse; of
 * two different markers the lexicographically smaller line wins, so
 * the winner is order-independent; byte-identical lines keep @p held.
 * Two healthy rows with different bytes throw StoreMergeConflict.
 */
bool supersedesStoredLine(const std::string &key, const StoredLine &held,
                          const StoredLine &incoming);

/** What mergeSweepStores did. */
struct StoreMergeReport
{
    size_t inputs = 0;             ///< input stores read
    size_t cells = 0;              ///< cells in the merged output
    size_t healthy = 0;            ///< healthy rows among them
    size_t quarantined = 0;        ///< quarantine markers among them
    size_t duplicates = 0;         ///< byte-identical repeats collapsed
    size_t markers_superseded = 0; ///< markers displaced by healthy rows
    size_t corrupt_lines = 0;      ///< input lines skipped as corrupt

    /** Per-input breakdown, in input order — so a farmed merge can
     *  name the machine that shipped corrupt or quarantined cells
     *  instead of burying it in the aggregate. */
    struct InputStats
    {
        std::string path;
        size_t cells = 0;         ///< healthy + marker lines read
        size_t quarantined = 0;   ///< quarantine markers among them
        size_t corrupt_lines = 0; ///< lines skipped as corrupt
    };
    std::vector<InputStats> per_input;
};

/**
 * Merge N partial binary sweep stores into one binary store at
 * @p output_path — the reassembly half of sweep farming: run disjoint
 * (or overlapping) cell subsets on separate machines, ship the stores
 * back, merge. Each input is read through a read-only SweepStore; a
 * JSON store is rejected (convert it with `vqastore import` first).
 *
 * Semantics: union by cell key, preserving each stored line's exact
 * bytes (rows are never reserialized, so every cell line in the merged
 * store is byte-identical to the line a single run over the union
 * would have stored; the output orders lines by key). Conflicts
 * resolve by supersedesStoredLine: markers propagate until some store
 * heals the cell, matching retry_failed, and two healthy rows with
 * different bytes throw StoreMergeConflict naming the key.
 * Byte-identical repeats collapse. Corrupt input records are skipped
 * and counted, never copied forward. The output is written atomically
 * (tmp + rename) and is deterministic in the input *set*: merging is
 * order-independent and idempotent (merging a store with itself, or
 * re-merging the output, is a no-op).
 */
StoreMergeReport mergeSweepStores(const std::vector<std::string> &inputs,
                                  const std::string &output_path);

/** The drivers' `--merge out in...` entry point: merges, prints a
 *  one-line summary (or the error) to @p out, returns a process exit
 *  code (0 on success). */
int runStoreMergeCli(const std::vector<std::string> &inputs,
                     const std::string &output_path, std::ostream &out);

} // namespace eftvqa

#endif // EFTVQA_VQA_SWEEP_HPP
