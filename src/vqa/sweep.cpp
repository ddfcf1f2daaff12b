#include "vqa/sweep.hpp"

#include <unistd.h>

#include <bit>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/json.hpp"
#include "ham/heisenberg.hpp"
#include "ham/ising.hpp"
#include "vqa/executor.hpp"
#include "vqa/procpool.hpp"
#include "vqa/storefmt.hpp"

#include "store/sweep_store.hpp"

namespace eftvqa {

const char *
hamFamilyName(HamFamily family)
{
    switch (family) {
      case HamFamily::Ising: return "ising";
      case HamFamily::Heisenberg: return "heisenberg";
      case HamFamily::Molecule: return "molecule";
    }
    return "?";
}

const char *
faultPolicyName(FaultPolicy policy)
{
    switch (policy) {
      case FaultPolicy::fail_fast: return "fail_fast";
      case FaultPolicy::isolate: return "isolate";
    }
    return "?";
}

const char *
isolationModeName(IsolationMode mode)
{
    switch (mode) {
      case IsolationMode::in_process: return "in_process";
      case IsolationMode::process: return "process";
    }
    return "?";
}

SweepRow
quarantineRowFor(const CellOutcome &outcome)
{
    SweepRow row;
    row.set("quarantined", true);
    row.set("category", errorCategoryName(outcome.category));
    row.set("error", outcome.error);
    row.set("attempts", outcome.attempts);
    row.set("elapsed_ms", outcome.elapsed_ms);
    return row;
}

CellOutcome
outcomeFromQuarantineRow(const SweepRow &row)
{
    CellOutcome outcome;
    outcome.ok = false;
    if (row.has("category"))
        outcome.category = errorCategoryFromName(row.str("category"));
    if (row.has("error"))
        outcome.error = row.str("error");
    if (row.has("attempts"))
        outcome.attempts =
            static_cast<size_t>(row.integer("attempts"));
    if (row.has("elapsed_ms"))
        outcome.elapsed_ms = row.num("elapsed_ms");
    return outcome;
}

// --------------------------------------------------------------------
// SweepRow
// --------------------------------------------------------------------

namespace {

/** Set-or-overwrite keeping first-set field order (rows re-serialize
 *  in the order the cell function built them). */
template <class V>
SweepRow &
setField(std::vector<std::pair<std::string, SweepRow::Value>> &fields,
         SweepRow &row, std::string name, V v)
{
    for (auto &f : fields) {
        if (f.first == name) {
            f.second = SweepRow::Value(std::move(v));
            return row;
        }
    }
    fields.emplace_back(std::move(name), SweepRow::Value(std::move(v)));
    return row;
}

} // namespace

SweepRow &
SweepRow::set(std::string name, double v)
{
    return setField(fields_, *this, std::move(name), v);
}

SweepRow &
SweepRow::set(std::string name, long long v)
{
    return setField(fields_, *this, std::move(name), v);
}

SweepRow &
SweepRow::set(std::string name, int v)
{
    return set(std::move(name), static_cast<long long>(v));
}

SweepRow &
SweepRow::set(std::string name, size_t v)
{
    return set(std::move(name), static_cast<long long>(v));
}

SweepRow &
SweepRow::set(std::string name, std::string v)
{
    return setField(fields_, *this, std::move(name), std::move(v));
}

SweepRow &
SweepRow::set(std::string name, const char *v)
{
    return set(std::move(name), std::string(v));
}

SweepRow &
SweepRow::set(std::string name, bool v)
{
    return setField(fields_, *this, std::move(name), v);
}

bool
SweepRow::has(std::string_view name) const
{
    for (const auto &f : fields_)
        if (f.first == name)
            return true;
    return false;
}

const SweepRow::Value &
SweepRow::at(std::string_view name) const
{
    for (const auto &f : fields_)
        if (f.first == name)
            return f.second;
    throw std::invalid_argument("SweepRow: no field named '" +
                                std::string(name) + "'");
}

double
SweepRow::num(std::string_view name) const
{
    const Value &v = at(name);
    if (const double *d = std::get_if<double>(&v))
        return *d;
    if (const long long *i = std::get_if<long long>(&v))
        return static_cast<double>(*i);
    throw std::invalid_argument("SweepRow: field '" + std::string(name) +
                                "' is not numeric");
}

long long
SweepRow::integer(std::string_view name) const
{
    const Value &v = at(name);
    if (const long long *i = std::get_if<long long>(&v))
        return *i;
    throw std::invalid_argument("SweepRow: field '" + std::string(name) +
                                "' is not an integer");
}

const std::string &
SweepRow::str(std::string_view name) const
{
    const Value &v = at(name);
    if (const std::string *s = std::get_if<std::string>(&v))
        return *s;
    throw std::invalid_argument("SweepRow: field '" + std::string(name) +
                                "' is not a string");
}

bool
SweepRow::flag(std::string_view name) const
{
    const Value &v = at(name);
    if (const bool *b = std::get_if<bool>(&v))
        return *b;
    throw std::invalid_argument("SweepRow: field '" + std::string(name) +
                                "' is not a bool");
}

bool
SweepRow::operator==(const SweepRow &other) const
{
    if (fields_.size() != other.fields_.size())
        return false;
    for (size_t i = 0; i < fields_.size(); ++i) {
        if (fields_[i].first != other.fields_[i].first)
            return false;
        const Value &a = fields_[i].second;
        const Value &b = other.fields_[i].second;
        if (a.index() != b.index())
            return false;
        // Doubles compare by bits: the resume contract is
        // bit-identity, and NaN payloads must not make a carried row
        // "unequal to itself".
        if (const double *da = std::get_if<double>(&a)) {
            if (std::bit_cast<uint64_t>(*da) !=
                std::bit_cast<uint64_t>(*std::get_if<double>(&b)))
                return false;
        } else if (a != b) {
            return false;
        }
    }
    return true;
}

// --------------------------------------------------------------------
// SweepSpec: validation and grid expansion
// --------------------------------------------------------------------

size_t
SweepSpec::cellCount() const
{
    size_t count = 0;
    for (const HamFamily family : families)
        count += family == HamFamily::Molecule
                     ? molecules.size()
                     : sizes.size() * couplings.size();
    return count;
}

void
SweepSpec::validate() const
{
    if (name.empty())
        throw std::invalid_argument(
            "SweepSpec.name: must be non-empty (sinks and reports label "
            "sweeps by name)");
    if (!ansatz)
        throw std::invalid_argument(
            "SweepSpec.ansatz: the ansatz factory must be set (e.g. "
            "[](int n) { return fcheAnsatz(n, 1); })");
    if (families.empty())
        throw std::invalid_argument(
            "SweepSpec.families: at least one Hamiltonian family is "
            "required");

    bool chain = false;
    bool molecule = false;
    for (const HamFamily family : families)
        (family == HamFamily::Molecule ? molecule : chain) = true;
    if (chain) {
        if (sizes.empty())
            throw std::invalid_argument(
                "SweepSpec.sizes: the size axis is empty but an "
                "Ising/Heisenberg family is listed");
        for (const int n : sizes)
            if (n <= 0)
                throw std::invalid_argument(
                    "SweepSpec.sizes: qubit counts must be > 0 (got " +
                    std::to_string(n) + ")");
        if (couplings.empty())
            throw std::invalid_argument(
                "SweepSpec.couplings: the coupling axis is empty but an "
                "Ising/Heisenberg family is listed");
    }
    if (molecule) {
        if (molecules.empty())
            throw std::invalid_argument(
                "SweepSpec.molecules: the Molecule family is listed but "
                "no MoleculeSpecs are given");
        for (const MoleculeSpec &mol : molecules)
            if (mol.n_qubits <= 0)
                throw std::invalid_argument(
                    "SweepSpec.molecules: n_qubits must be > 0 (" +
                    mol.name() + ")");
    }

    if (max_cells == 0)
        throw std::invalid_argument("SweepSpec.max_cells: must be > 0");
    const size_t count = cellCount();
    if (count > max_cells) {
        std::ostringstream oss;
        oss << "SweepSpec.max_cells: grid expands to " << count
            << " cells (families=" << families.size()
            << " x sizes=" << sizes.size()
            << " x couplings=" << couplings.size();
        if (molecule)
            oss << ", molecules=" << molecules.size();
        oss << ") exceeding the cap of " << max_cells
            << "; raise max_cells if the sweep is intentional";
        throw std::invalid_argument(oss.str());
    }

    checkWorkerCount("SweepSpec.cell_workers", cell_workers);
    checkWorkerCount("SweepSpec.process_workers", process_workers);
    checkWorkerCount("SweepSpec.executor_threads", executor_threads);

    if (cell_attempts == 0)
        throw std::invalid_argument(
            "SweepSpec.cell_attempts: must be >= 1");
    if (cell_attempts > 1 && fault_policy == FaultPolicy::fail_fast)
        throw std::invalid_argument(
            "SweepSpec.cell_attempts: retries require "
            "FaultPolicy::isolate (fail_fast aborts on the first cell "
            "error)");
    if (retry_backoff_ms < 0.0)
        throw std::invalid_argument(
            "SweepSpec.retry_backoff_ms: must be >= 0");
    if (cell_timeout_ms < 0.0)
        throw std::invalid_argument(
            "SweepSpec.cell_timeout_ms: must be >= 0");
    if (cell_hard_timeout_ms < 0.0)
        throw std::invalid_argument(
            "SweepSpec.cell_hard_timeout_ms: must be >= 0");

    const bool proc = isolation == IsolationMode::process;
    if (proc && fault_policy != FaultPolicy::isolate)
        throw std::invalid_argument(
            "SweepSpec.isolation: process isolation requires "
            "FaultPolicy::isolate (a worker-process death is contained "
            "and quarantined, which fail_fast cannot express)");
    if (!proc && process_workers > 0)
        throw std::invalid_argument(
            "SweepSpec.process_workers: only meaningful under "
            "IsolationMode::process (set isolation = process)");
    if (!proc && cell_hard_timeout_ms > 0.0)
        throw std::invalid_argument(
            "SweepSpec.cell_hard_timeout_ms: the hard deadline needs a "
            "worker process to SIGKILL — set isolation = process, or "
            "use cell_timeout_ms for the cooperative soft deadline");
    if (!proc && !supervisor_log.empty())
        throw std::invalid_argument(
            "SweepSpec.supervisor_log: only written under "
            "IsolationMode::process (set isolation = process)");
}

namespace {

std::string
formatDouble(double v)
{
    std::ostringstream oss;
    oss << v;
    return oss.str();
}

uint64_t
hashString(uint64_t h, const std::string &s)
{
    for (const char c : s)
        h = detail::hashCombine(h, static_cast<unsigned char>(c));
    return detail::hashCombine(h, s.size());
}

/** The cell's resume identity: every knob that can change its rows. */
uint64_t
cellContentKey(const SweepPoint &point, const ExperimentSpec &experiment,
               uint64_t key_salt)
{
    uint64_t h = detail::hashCombine(0xCBF29CE484222325ull, key_salt);
    auto mix = [&h](uint64_t v) { h = detail::hashCombine(h, v); };
    auto mixd = [&mix](double v) { mix(std::bit_cast<uint64_t>(v)); };

    mix(static_cast<uint64_t>(point.family));
    mix(static_cast<uint64_t>(point.qubits));
    mixd(point.coupling);
    mix(point.molecule.has_value() ? 1 : 0);
    if (point.molecule) {
        mix(static_cast<uint64_t>(point.molecule->molecule));
        mixd(point.molecule->bond_length);
        mix(static_cast<uint64_t>(point.molecule->n_qubits));
    }

    mix(experiment.hamiltonian.contentHash());
    mix(experiment.ansatz.contentHash());
    for (const RegimeSpec &regime : experiment.regimes) {
        // The name is protocol, not statistics: cell functions pick
        // regimes by name, so a rename changes what the cell computes.
        h = hashString(h, regime.name);
        mix(regime.key());
    }
    mix(experiment.genetic.population);
    mix(experiment.genetic.generations);
    mixd(experiment.genetic.mutation_rate);
    mixd(experiment.genetic.crossover_rate);
    mix(experiment.genetic.elite);
    mix(experiment.genetic.seed);
    // Shot allocation was once switchable; its weighted setting, the
    // only one left, keeps mixing 1 so that every stored key stays.
    mix(1);
    // Caching on/off changes rows (off draws fresh trajectory samples
    // per evaluation), so it is keyed; any capacity > 0 gives identical
    // rows (frozen-parent discipline), so only the bit is. The tag is
    // mixed only when caching is off, keeping every cached key as is.
    if (experiment.cache_capacity == 0)
        mix(0x0C4C4E0FFull);
    return h;
}

} // namespace

std::string
SweepCell::keyString() const
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(content_key));
    return buf;
}

std::vector<SweepCell>
SweepSpec::cells() const
{
    validate();

    std::vector<SweepPoint> points;
    points.reserve(cellCount());
    for (const HamFamily family : families) {
        if (family == HamFamily::Molecule) {
            for (const MoleculeSpec &mol : molecules) {
                SweepPoint pt;
                pt.family = family;
                pt.qubits = mol.n_qubits;
                pt.coupling = mol.bond_length;
                pt.molecule = mol;
                points.push_back(std::move(pt));
            }
        } else {
            for (const int n : sizes) {
                for (const double j : couplings) {
                    SweepPoint pt;
                    pt.family = family;
                    pt.qubits = n;
                    pt.coupling = j;
                    points.push_back(std::move(pt));
                }
            }
        }
    }

    std::vector<SweepCell> cells;
    cells.reserve(points.size());
    for (size_t i = 0; i < points.size(); ++i) {
        SweepCell cell;
        cell.point = std::move(points[i]);
        cell.point.index = i;

        if (cell.point.family == HamFamily::Molecule)
            cell.label = std::string("molecule/") +
                         cell.point.molecule->name() + "/n" +
                         std::to_string(cell.point.qubits);
        else
            cell.label = std::string(hamFamilyName(cell.point.family)) +
                         "/n" + std::to_string(cell.point.qubits) + "/j" +
                         formatDouble(cell.point.coupling);

        ExperimentSpec &experiment = cell.experiment;
        switch (cell.point.family) {
          case HamFamily::Ising:
            experiment.hamiltonian =
                isingHamiltonian(cell.point.qubits, cell.point.coupling);
            break;
          case HamFamily::Heisenberg:
            experiment.hamiltonian = heisenbergHamiltonian(
                cell.point.qubits, cell.point.coupling);
            break;
          case HamFamily::Molecule:
            experiment.hamiltonian =
                moleculeHamiltonian(*cell.point.molecule);
            break;
        }
        experiment.ansatz = ansatz(cell.point.qubits);
        experiment.regimes = regimes;
        experiment.genetic = genetic;
        experiment.cache_capacity = cache_capacity;
        experiment.executor_threads = executor_threads;

        if (customize)
            customize(cell.point, experiment);

        try {
            experiment.validate();
        } catch (const std::invalid_argument &e) {
            throw std::invalid_argument("SweepSpec cell '" + cell.label +
                                        "': " + e.what());
        }

        cell.content_key = cellContentKey(cell.point, experiment, key_salt);
        cells.push_back(std::move(cell));
    }
    return cells;
}

// --------------------------------------------------------------------
// SweepRunner
// --------------------------------------------------------------------

SweepRunner::SweepRunner(SweepSpec spec) : spec_(std::move(spec))
{
    cells_ = spec_.cells(); // validates the grid and every cell
    if (spec_.cache_capacity > 0)
        cache_ = std::make_shared<SharedEnergyCache>(spec_.cache_capacity);
}

SweepReport
SweepRunner::run(const SweepCellFn &fn, SweepSink *sink)
{
    if (!fn)
        throw std::invalid_argument(
            "SweepRunner::run: the cell function must be set");

    const bool isolate = spec_.fault_policy == FaultPolicy::isolate;
    const size_t n = cells_.size();
    SweepReport report;
    report.cells = n;
    const size_t hits0 = cache_ ? cache_->hits() : 0;
    const size_t misses0 = cache_ ? cache_->misses() : 0;

    std::vector<SweepRow> rows(n);
    std::vector<CellOutcome> outcomes(n);
    std::vector<char> done(n, 0);
    std::vector<char> fresh(n, 0);
    std::vector<char> failed(n, 0);
    std::vector<size_t> pending;
    for (size_t i = 0; i < n; ++i) {
        if (sink && sink->contains(cells_[i])) {
            const bool was_quarantined = sink->quarantined(cells_[i]);
            if (!was_quarantined || !spec_.retry_failed) {
                rows[i] = sink->storedRow(cells_[i]);
                if (was_quarantined) {
                    outcomes[i] = sink->storedOutcome(cells_[i]);
                    failed[i] = 1;
                }
                done[i] = 1;
                ++report.skipped;
                continue;
            }
            // Quarantined and retry_failed: re-execute the cell; its
            // fresh row supersedes the stored marker.
        }
        fresh[i] = 1;
        pending.push_back(i);
    }
    report.executed = pending.size();

    // Process isolation: cells execute in forked workers under the
    // ProcessPool supervisor; this process only dispatches, parses and
    // retries. Declared before the WorkerPool below so the dispatching
    // threads are joined before the supervisor goes away.
    std::unique_ptr<ProcessPool> procs;
    if (spec_.isolation == IsolationMode::process && !pending.empty()) {
        ProcessPool::Config config;
        config.workers = spec_.process_workers;
        config.hard_timeout_ms = spec_.cell_hard_timeout_ms;
        config.log_path = spec_.supervisor_log;
        std::vector<ProcTask> tasks;
        tasks.reserve(n);
        for (size_t i = 0; i < n; ++i)
            tasks.push_back(
                {i, cells_[i].keyString(), cells_[i].label});
        // Runs in the forked worker process: one fresh session per
        // cell, a per-worker shared cache (lazily built after fork —
        // pure, so worker-local caching never changes rows), and the
        // checksummed store line as the wire payload, so the result
        // crosses the process boundary with its integrity check
        // attached.
        auto worker_cache =
            std::make_shared<std::shared_ptr<SharedEnergyCache>>();
        auto worker_fn = [this, &fn, worker_cache](size_t i) {
            faultProbe("cell.start");
            std::shared_ptr<CancelToken> token;
            if (spec_.cell_timeout_ms > 0.0) {
                token = std::make_shared<CancelToken>();
                token->setDeadline(spec_.cell_timeout_ms);
            }
            std::shared_ptr<SharedEnergyCache> cache;
            if (spec_.cache_capacity > 0 &&
                cells_[i].experiment.cache_capacity > 0) {
                if (!*worker_cache)
                    *worker_cache = std::make_shared<SharedEnergyCache>(
                        spec_.cache_capacity);
                cache = *worker_cache;
            }
            ExperimentSession session(cells_[i].experiment, cache);
            if (token)
                session.setCancelToken(token);
            const SweepRow row = fn(cells_[i], session);
            return storefmt::checksummedCellLine(
                storefmt::serializeCellPayload(cells_[i].keyString(),
                                               cells_[i].label, row));
        };
        procs = std::make_unique<ProcessPool>(
            std::move(config), std::move(tasks), std::move(worker_fn));
    }

    std::mutex mutex;
    std::condition_variable cv;
    std::exception_ptr error;
    size_t retries = 0;

    // One cell, all its attempts. Every attempt runs a fresh session
    // (and a fresh CancelToken when a deadline is set), so a retried
    // cell recomputes from scratch and its row is bit-identical to a
    // first-attempt success — delays and failed attempts never leak
    // into surviving results. Under fail_fast the first failure
    // propagates out instead of being retried.
    auto execute_cell = [&](size_t i, SweepRow &row) {
        CellOutcome outcome;
        outcome.ok = false;
        const auto t0 = std::chrono::steady_clock::now();
        const size_t attempts = isolate ? spec_.cell_attempts : 1;
        for (size_t attempt = 1; attempt <= attempts; ++attempt) {
            outcome.attempts = attempt;
            try {
                if (procs) {
                    // The cell runs (and its cell.start probe fires)
                    // in a worker process; a worker death surfaces
                    // here as CrashError, a worker-caught exception as
                    // RemoteCellError — both retry/quarantine exactly
                    // like a locally thrown exception.
                    const std::string line = procs->runTask(i);
                    std::string key;
                    std::string label;
                    SweepRow parsed;
                    if (!storefmt::parseChecksummedLine(line, key,
                                                        label, parsed))
                        throw std::runtime_error(
                            "process worker returned a corrupt result "
                            "line for cell '" + cells_[i].label + "'");
                    if (key != cells_[i].keyString())
                        throw std::runtime_error(
                            "process worker returned a result for key " +
                            key + " to cell '" + cells_[i].label +
                            "' (" + cells_[i].keyString() + ")");
                    row = std::move(parsed);
                } else {
                    faultProbe("cell.start");
                    std::shared_ptr<CancelToken> token;
                    if (spec_.cell_timeout_ms > 0.0) {
                        token = std::make_shared<CancelToken>();
                        token->setDeadline(spec_.cell_timeout_ms);
                    }
                    // Each cell owns a fresh session; the sweep-level
                    // cache is the only shared state, and it is pure
                    // (hits equal what re-evaluation would produce), so
                    // results are independent of cell scheduling. A
                    // cell that does not cache gets none.
                    ExperimentSession session(
                        cells_[i].experiment,
                        cells_[i].experiment.cache_capacity > 0
                            ? cache_
                            : nullptr);
                    if (token)
                        session.setCancelToken(token);
                    row = fn(cells_[i], session);
                }
                outcome.ok = true;
                outcome.error.clear();
                break;
            } catch (...) {
                if (!isolate)
                    throw;
                const ClassifiedError e = classifyCurrentException();
                outcome.category = e.category;
                outcome.error = e.what;
                if (attempt < attempts) {
                    {
                        std::lock_guard<std::mutex> lock(mutex);
                        ++retries;
                    }
                    const double backoff = retryBackoffMs(
                        cells_[i].key(), attempt,
                        spec_.retry_backoff_ms);
                    if (backoff > 0.0)
                        std::this_thread::sleep_for(
                            std::chrono::duration<double, std::milli>(
                                backoff));
                }
            }
        }
        outcome.elapsed_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count();
        return outcome;
    };

    auto run_cell = [&](size_t i) {
        try {
            SweepRow row;
            CellOutcome outcome = execute_cell(i, row);
            std::lock_guard<std::mutex> lock(mutex);
            if (outcome.ok) {
                rows[i] = std::move(row);
            } else {
                // The report carries the same marker row the sink
                // stores, so rows[] stays one-per-cell either way.
                rows[i] = quarantineRowFor(outcome);
                failed[i] = 1;
            }
            outcomes[i] = std::move(outcome);
            done[i] = 1;
        } catch (...) {
            std::lock_guard<std::mutex> lock(mutex);
            if (!error)
                error = std::current_exception();
        }
        cv.notify_all();
    };

    std::unique_ptr<WorkerPool> pool;
    if (spec_.cell_workers != 1 && pending.size() > 1) {
        // Under process isolation the threads only block on runTask,
        // so size the pool to the worker-process target.
        pool = std::make_unique<WorkerPool>(
            procs ? procs->workerTarget() : spec_.cell_workers);
        for (const size_t i : pending)
            pool->enqueue([&, i] {
                {
                    std::lock_guard<std::mutex> lock(mutex);
                    if (error)
                        return; // stop scheduling after the first error
                }
                run_cell(i);
            });
    } else {
        for (const size_t i : pending) {
            {
                std::lock_guard<std::mutex> lock(mutex);
                if (error)
                    break;
            }
            run_cell(i);
        }
    }

    // Stream fresh rows to the sink in serial cell order as the
    // prefix completes (async cells further ahead wait their turn).
    // Failed cells stream their quarantine record in the same order;
    // carried cells are already stored and are not written again.
    {
        std::unique_lock<std::mutex> lock(mutex);
        for (size_t i = 0; i < n; ++i) {
            cv.wait(lock, [&] { return done[i] != 0 || error; });
            if (error)
                break;
            if (sink && fresh[i] != 0) {
                lock.unlock();
                if (failed[i] != 0)
                    sink->writeQuarantined(cells_[i], outcomes[i]);
                else
                    sink->write(cells_[i], rows[i]);
                lock.lock();
            }
        }
    }
    if (pool)
        pool->waitIdle();
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (error)
            std::rethrow_exception(error);
    }

    for (const char f : failed)
        report.failed += f != 0 ? 1 : 0;
    report.retries = retries;
    report.outcomes = std::move(outcomes);
    report.rows = std::move(rows);
    if (cache_) {
        report.cache_hits = cache_->hits() - hits0;
        report.cache_misses = cache_->misses() - misses0;
    }
    if (procs) {
        report.workers_spawned = procs->workersSpawned();
        report.worker_crashes = procs->workerCrashes();
        report.watchdog_kills = procs->watchdogKills();
    }
    if (sink)
        sink->finish();
    return report;
}

// --------------------------------------------------------------------
// Store merging
// --------------------------------------------------------------------

bool
supersedesStoredLine(const std::string &key, const StoredLine &held,
                     const StoredLine &incoming)
{
    if (held.line == incoming.line)
        return false;
    if (held.marker != incoming.marker)
        // A healthy row heals the quarantine marker — the merge-level
        // mirror of retry_failed.
        return held.marker;
    if (held.marker)
        // Two different markers (say, crash on one machine, timeout on
        // another): the smaller line wins, whatever the input order.
        return incoming.line < held.line;
    // Same key, different healthy row bytes: machines disagree about
    // a result. Fail loudly, never pick.
    throw StoreMergeConflict(key, held.source, incoming.source);
}

StoreMergeReport
mergeSweepStores(const std::vector<std::string> &inputs,
                 const std::string &output_path)
{
    if (inputs.empty())
        throw std::invalid_argument(
            "mergeSweepStores: at least one input store is required");
    if (output_path.empty())
        throw std::invalid_argument(
            "mergeSweepStores: output path must be non-empty");

    // Keyed by cell key and iterated in key order: the output is a
    // function of the input *set*, independent of input order.
    std::map<std::string, StoredLine> merged;
    StoreMergeReport report;
    std::string sweep_name;

    for (const std::string &input : inputs) {
        if (::access(input.c_str(), R_OK) != 0)
            throw std::invalid_argument(
                "mergeSweepStores: cannot read store '" + input + "'");
        const store::SweepStore in(input,
                                   store::SweepStore::Mode::read_only);
        const store::StoreStats stats = in.stats();
        ++report.inputs;
        StoreMergeReport::InputStats &in_stats =
            report.per_input.emplace_back();
        in_stats.path = input;
        in_stats.cells = stats.cells;
        in_stats.quarantined = stats.markers;
        in_stats.corrupt_lines = stats.corruptLines();
        report.corrupt_lines += in_stats.corrupt_lines;
        // Smallest name wins, again for order independence (partials
        // of one sweep all carry the same name anyway).
        if (sweep_name.empty() || in.sweepName() < sweep_name)
            sweep_name = in.sweepName();
        for (storefmt::StoreCell &cell : in.cells()) {
            StoredLine next{std::move(cell.line), cell.marker, input};
            const auto it = merged.find(cell.key);
            if (it == merged.end()) {
                merged.emplace(cell.key, std::move(next));
                continue;
            }
            StoredLine &have = it->second;
            if (have.line == next.line)
                ++report.duplicates;
            else if (have.marker != next.marker)
                ++report.markers_superseded;
            if (supersedesStoredLine(cell.key, have, next))
                have = std::move(next);
        }
    }

    // The output records no merge history, so re-merging it is a
    // no-op. The write is atomic (tmp + rename) and the lines land in
    // key order.
    const std::string tmp = output_path + ".tmp";
    std::remove(tmp.c_str());
    {
        store::SweepStore out_store(tmp, store::SweepStore::Mode::append,
                                    sweep_name);
        for (const auto &[key, entry] : merged)
            out_store.appendLine(entry.line);
        out_store.sync();
    }
    if (std::rename(tmp.c_str(), output_path.c_str()) != 0)
        throw std::runtime_error("mergeSweepStores: cannot rename " +
                                 tmp + " to " + output_path);
    storefmt::fsyncParentDir(output_path);

    report.cells = merged.size();
    for (const auto &[key, entry] : merged)
        ++(entry.marker ? report.quarantined : report.healthy);
    return report;
}

int
runStoreMergeCli(const std::vector<std::string> &inputs,
                 const std::string &output_path, std::ostream &out)
{
    try {
        const StoreMergeReport report =
            mergeSweepStores(inputs, output_path);
        out << "merged " << report.inputs << " store(s) -> "
            << output_path << ": " << report.cells << " cells ("
            << report.healthy << " healthy, " << report.quarantined
            << " quarantined), " << report.duplicates
            << " duplicate(s) collapsed, " << report.markers_superseded
            << " marker(s) superseded, " << report.corrupt_lines
            << " corrupt line(s) skipped\n";
        // Per-input accounting so a farmed merge names the store that
        // shipped damage instead of burying it in the aggregate.
        for (const StoreMergeReport::InputStats &in : report.per_input)
            out << "  " << in.path << ": " << in.cells << " cell(s), "
                << in.quarantined << " quarantined, "
                << in.corrupt_lines << " corrupt line(s)\n";
        return 0;
    } catch (const std::exception &e) {
        out << "merge failed: " << e.what() << "\n";
        return 1;
    }
}

} // namespace eftvqa
