/**
 * @file
 * Shared pieces of the eftvqa benchmark: timing, order statistics, the
 * outside-in span tracer, the per-run result record and the host
 * record. Everything here lives in the benchmark, not the library: the
 * benchmark reaches the library only through its public entry points.
 */

#ifndef EFTBENCH_BENCH_HPP
#define EFTBENCH_BENCH_HPP

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace eftbench {

using Clock = std::chrono::steady_clock;

inline double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** Linear-interpolated quantile (q in [0, 1]) of @p v; 0 when empty. */
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/** splitmix64: every seed the benchmark uses is derived through this
 *  from the --seed argument and a fixed salt. */
uint64_t mix(uint64_t seed, uint64_t salt);

/** The workload process's own peak resident set (VmHWM), in MiB. */
double peakRssMb();

/** Reset VmHWM to the current resident set (Linux clear_refs "5");
 *  false when the kernel refuses. */
bool resetPeakRss();

/**
 * Outside-in tracer: one span around each call the benchmark makes
 * into a layer. Spans are kept in memory and written out at exit; a
 * disabled tracer records nothing (the untraced runs pay one branch).
 */
class Tracer
{
  public:
    struct Rec
    {
        std::string name; ///< "<module>.<what>", e.g. "vqa.energy"
        double start_us = 0.0;
        double end_us = 0.0;
        long long parent = -1; ///< index of the causing span, -1 = root
        uint64_t request = 0;  ///< shared by the spans of one request
    };

    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
    void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }

    long long begin(std::string name, uint64_t request, long long parent);
    void end(long long id);

    /** Per-module self time in ms: each span's duration minus the part
     *  of its interval that its child spans cover. */
    std::map<std::string, double> selfTimeMs() const;

    /** Spans plus the self-time table, as one JSON document. */
    void write(const std::string &path, const std::string &header) const;

    size_t size() const;

  private:
    double nowUs() const;

    std::atomic<bool> enabled_{false};
    Clock::time_point epoch_ = Clock::now();
    mutable std::mutex mutex_;
    std::vector<Rec> spans_;
};

Tracer &tracer();

/** RAII span on the process tracer; the parent defaults to the span
 *  open on this thread. */
class Span
{
  public:
    explicit Span(const char *name, uint64_t request = 0,
                  long long parent = -2);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;
    long long id() const { return id_; }

  private:
    long long id_ = -1;
    long long saved_ = -1;
};

/** Named per-layer samples collected by a traced run. */
struct Samples
{
    std::map<std::string, std::vector<double>> values;
    std::mutex mutex;

    void add(const std::string &name, double v)
    {
        std::lock_guard<std::mutex> lock(mutex);
        values[name].push_back(v);
    }
    bool has(const std::string &name) const
    {
        const auto it = values.find(name);
        return it != values.end() && !it->second.empty();
    }
};

/** Run @p fn under a span named @p span_name; in a traced run, add
 *  its time in ms to @p samples as @p metric. */
template <class Fn>
auto
timed(Samples &samples, const char *span_name, const char *metric,
      uint64_t request, Fn fn)
{
    Span span(span_name, request);
    const auto t0 = Clock::now();
    auto out = fn();
    if (tracer().enabled())
        samples.add(metric, msSince(t0));
    return out;
}

/** fn(i) for i in [0, n) on @p threads threads. */
template <class Fn>
void
parallelFor(size_t n, size_t threads, Fn fn)
{
    std::vector<std::thread> pool;
    std::atomic<size_t> next{0};
    for (size_t t = 0; t < std::max<size_t>(1, threads); ++t)
        pool.emplace_back([&] {
            for (size_t i; (i = next.fetch_add(1)) < n;)
                fn(i);
        });
    for (auto &th : pool)
        th.join();
}

/** vqa.distinct_circuit_frac of one round: distinct circuit content
 *  hashes over energies (no sample when @p hashes is empty). */
void addDistinctFraction(Samples &samples, const std::vector<uint64_t> &hashes);

/** One printed metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    size_t samples = 0;     ///< values behind it (0 = a single reading)
    std::string source;     ///< where a per-layer value came from
};

/** Thread counts and sizes a workload pins, recorded in every output. */
struct Pinned
{
    int omp_threads = 1;
    size_t cell_workers = 0;
    size_t executor_threads = 0;
    size_t daemon_workers = 0;
    size_t clients = 0;
    size_t inflight_per_client = 0;
};

/** Everything one benchmark run needs and produces. */
struct Run
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;          ///< self-test sizes
    bool corrupt_probe = false; ///< self-test: perturb one recorded probe
    std::string dir;            ///< fresh per-run directory (stores, socket)
    std::string probes_path;
    std::string commit = "unknown";
    Pinned pinned;

    // Results.
    size_t attempted = 0;
    size_t failed = 0;
    std::vector<std::string> failures; ///< first few, for stderr
    std::vector<Metric> metrics;       ///< what the JSON line carries
    std::vector<Metric> report;        ///< human-readable extras
    Samples samples;                   ///< traced-run layer samples
    /** (traced, seconds) of every round's timed phase. */
    std::vector<std::pair<bool, double>> walls;
    /** Peak resident set of each round (set-up and timed phase), MiB. */
    std::vector<double> round_rss_mb;

    /** Count one correctness check (or operation); false = failure. */
    bool check(bool ok, const std::string &what);
    /** Count @p n operations that all succeeded. */
    void ok(size_t n) { attempted += n; }

    void metric(std::string name, double value, std::string unit,
                size_t samples = 0, std::string source = "");
    void note(std::string name, double value, std::string unit,
              size_t samples = 0);
};

/** Round loop shared by every workload: runs @p round until the run's
 *  seconds are spent (and at least @p min_rounds times). Returns the
 *  number of rounds. @p round receives the round index and whether it
 *  is traced (a traced run alternates untraced and traced rounds). */
size_t runRounds(Run &run, size_t min_rounds,
                 const std::function<void(size_t, bool)> &round);

/** Host and configuration record, one JSON object. */
std::string hostRecord(const Run &run);

/** Recorded probe values ("name value" lines). */
std::map<std::string, double> loadProbes(const std::string &path);

// Workloads (one file each).
void runDmVqe(Run &run);
void runCliffordGa(Run &run);
void runServeMixed(Run &run);
/** One serve_mixed round, in a traced run, whose layer samples go to
 *  @p samples (the serve layer's reference probe for the batch
 *  workloads). */
void serveLayerProbe(Run &run, Samples &samples);
Pinned pinnedFor(const std::string &workload, unsigned nproc);

} // namespace eftbench

#endif // EFTBENCH_BENCH_HPP
