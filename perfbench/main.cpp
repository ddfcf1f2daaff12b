/**
 * @file
 * eftbench: runs one named workload of the eftvqa benchmark and prints
 * its metrics. The last line of standard output is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
 * metrics are the end-to-end ones, with --trace 1 the per-layer ones.
 *
 *   eftbench --workload dm_vqe|clifford_ga|serve_mixed --seed N
 *            --seconds S --trace 0|1 --dir <fresh run directory>
 *            --probes <recorded probe file> [--commit <id>]
 *            [--tiny] [--corrupt-probe]
 *   eftbench --record-probes
 *
 * Thread counts are pinned per workload (see pinnedFor); the OpenMP
 * team size is fixed through OMP_NUM_THREADS before the runtime
 * starts, by re-executing the binary once with it set.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <set>
#include <string>
#include <thread>

#include <unistd.h>

#include "bench.hpp"
#include "layers.hpp"

namespace eftbench {
namespace {

enum class Reduce { p50, p90, p99, mean, max };

struct LayerMetric
{
    const char *name;
    const char *unit;
    const char *samples;
    Reduce reduce;
};

// Every per-layer metric, in print order. Percentiles pool the samples
// of every traced round; noise.overhead_ms and trace.overhead_frac are
// derived below.
const LayerMetric kLayers[] = {
    {"sim.compile_ms", "ms", "sim.compile_ms", Reduce::p50},
    {"sim.compiled_ops", "count", "sim.compiled_ops", Reduce::p50},
    {"sim.dm_run_ms", "ms", "sim.dm_run_ms", Reduce::p50},
    {"noise.dm_prepare_ms", "ms", "noise.dm_prepare_ms", Reduce::p50},
    {"sim.dm_expectation_ms", "ms", "sim.dm_expectation_ms", Reduce::p50},
    {"sim.sv_energy_ms", "ms", "sim.sv_energy_ms", Reduce::p50},
    {"stabilizer.trajectory_us_n16", "us", "stabilizer.trajectory_us_n16",
     Reduce::p50},
    {"stabilizer.trajectory_us_n32", "us", "stabilizer.trajectory_us_n32",
     Reduce::p50},
    {"stabilizer.trajectory_us_n48", "us", "stabilizer.trajectory_us_n48",
     Reduce::p50},
    {"stabilizer.ideal_ms", "ms", "stabilizer.ideal_ms", Reduce::p50},
    {"vqa.energy_ms_p50", "ms", "vqa.energy_ms", Reduce::p50},
    {"vqa.energy_ms_p90", "ms", "vqa.energy_ms", Reduce::p90},
    {"vqa.distinct_circuit_frac", "ratio", "vqa.distinct_circuit_frac",
     Reduce::mean},
    {"vqa.ga_ms_p50", "ms", "vqa.ga_ms", Reduce::p50},
    {"vqa.evals_per_request", "count", "vqa.evals_per_request", Reduce::mean},
    {"vqa.cache_hit_ratio", "ratio", "vqa.cache_hit_ratio", Reduce::mean},
    {"vqa.cache_lookups", "count", "vqa.cache_lookups", Reduce::mean},
    {"vqa.cell_ms_p50", "ms", "vqa.cell_ms", Reduce::p50},
    {"vqa.session_ms", "ms", "vqa.session_ms", Reduce::p50},
    {"vqa.sweep_expand_ms", "ms", "vqa.sweep_expand_ms", Reduce::p50},
    {"store.append_ms_p50", "ms", "store.append_ms", Reduce::p50},
    {"store.append_ms_p99", "ms", "store.append_ms", Reduce::p99},
    {"store.fsyncs_per_append", "ratio", "store.fsyncs_per_append",
     Reduce::mean},
    {"store.max_commit_batch", "count", "store.max_commit_batch", Reduce::max},
    {"store.bytes_per_cell", "B", "store.bytes_per_cell", Reduce::mean},
    {"store.open_ms", "ms", "store.open_ms", Reduce::p50},
    {"serve.request_ms_p50", "ms", "serve.request_ms", Reduce::p50},
    {"serve.request_ms_p99", "ms", "serve.request_ms", Reduce::p99},
    {"serve.service_ms_p50", "ms", "serve.service_ms", Reduce::p50},
    {"serve.wait_ms_p50", "ms", "serve.wait_ms", Reduce::p50},
    {"serve.wait_ms_p99", "ms", "serve.wait_ms", Reduce::p99},
    {"serve.hit_ms_p50", "ms", "serve.hit_ms", Reduce::p50},
    {"serve.store_hit_frac", "ratio", "serve.store_hit_frac", Reduce::mean},
    {"serve.coalesced_frac", "ratio", "serve.coalesced_frac", Reduce::mean},
    {"serve.evaluated_frac", "ratio", "serve.evaluated_frac", Reduce::mean},
    {"serve.rejected", "count", "serve.rejected", Reduce::mean},
    {"serve.cache_hit_ratio", "ratio", "serve.cache_hit_ratio", Reduce::mean},
};

double
reduce(const std::vector<double> &v, Reduce how)
{
    switch (how) {
      case Reduce::p50: return quantile(v, 0.5);
      case Reduce::p90: return quantile(v, 0.9);
      case Reduce::p99: return quantile(v, 0.99);
      case Reduce::max: return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
      case Reduce::mean: {
          double s = 0.0;
          for (const double x : v)
              s += x;
          return v.empty() ? 0.0 : s / static_cast<double>(v.size());
      }
    }
    return 0.0;
}

/** Per-layer metrics of a traced run. Layers the workload does not
 *  reach are measured on the fixed probes (and a one-round serve
 *  probe), and say so in their source. */
void
layerMetrics(Run &run)
{
    Samples ref;
    referenceLayerProbes(run.samples, ref);
    if (!run.samples.has("serve.request_ms"))
        serveLayerProbe(run, ref);
    std::set<std::string> from_ref;
    for (auto &[name, values] : ref.values)
        if (!run.samples.has(name)) {
            run.samples.values[name] = values;
            from_ref.insert(name);
        }

    for (const LayerMetric &m : kLayers) {
        const auto &v = run.samples.values[m.samples];
        run.metric(m.name, reduce(v, m.reduce), m.unit, v.size(),
                   from_ref.count(m.samples) ? "reference probe" : run.workload);
        if (std::strcmp(m.name, "noise.dm_prepare_ms") == 0) {
            // Noise overhead = noisy prepare minus the noiseless run of
            // the same circuits.
            const auto &clean = run.samples.values["sim.dm_run_ms"];
            run.metric("noise.overhead_ms",
                       reduce(v, Reduce::p50) - reduce(clean, Reduce::p50),
                       "ms", v.size(),
                       from_ref.count(m.samples) ? "reference probe"
                                                 : run.workload);
        }
    }
    std::vector<double> traced, plain;
    for (const auto &[is_traced, s] : run.walls)
        (is_traced ? traced : plain).push_back(s);
    run.metric("trace.overhead_frac",
               plain.empty() || traced.empty()
                   ? 0.0
                   : median(traced) / median(plain) - 1.0,
               "ratio", run.walls.size(), run.workload);
}

void
printNumber(double v)
{
    if (std::isfinite(v))
        std::printf("%.17g", v);
    else
        std::printf("null");
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "eftbench: %s\nusage: eftbench --workload "
                 "dm_vqe|clifford_ga|serve_mixed --seed N --seconds S "
                 "--trace 0|1 --dir DIR --probes FILE [--commit ID] [--tiny] "
                 "[--corrupt-probe] | --record-probes\n",
                 why);
    return 2;
}

} // namespace

Pinned
pinnedFor(const std::string &workload, unsigned nproc)
{
    // Every compute thread is counted here and the total stays at or
    // below nproc: the library defaults (min(4, hw) pool threads, each
    // opening an OpenMP team) would oversubscribe a small host. On a
    // shared 4-vCPU host, rounds that used all four cores spread twice
    // as wide run to run as rounds on two, so dm_vqe runs two cells at
    // a time.
    const size_t hw = nproc == 0 ? 1 : nproc;
    Pinned p;
    p.executor_threads = 1;
    if (workload == "dm_vqe") {
        p.omp_threads = 1;
        p.cell_workers = std::min<size_t>(2, hw);
    } else if (workload == "clifford_ga") {
        p.omp_threads = hw >= 4 ? 2 : 1;
        p.cell_workers = std::min<size_t>(2, hw);
    } else {
        p.omp_threads = 1;
        p.daemon_workers = std::min<size_t>(2, hw);
        p.clients = std::min<size_t>(4, std::max<size_t>(2, hw));
        p.inflight_per_client = 4;
    }
    return p;
}

} // namespace eftbench

int
main(int argc, char **argv)
{
    using namespace eftbench;
    Run run;
    std::string trace_arg;
    bool record_probes = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::exit(usage(("missing value for " + a).c_str()));
            }
            return argv[++i];
        };
        if (a == "--workload")
            run.workload = value();
        else if (a == "--seed")
            run.seed = std::stoull(value());
        else if (a == "--seconds")
            run.seconds = std::stod(value());
        else if (a == "--trace")
            trace_arg = value();
        else if (a == "--dir")
            run.dir = value();
        else if (a == "--probes")
            run.probes_path = value();
        else if (a == "--commit")
            run.commit = value();
        else if (a == "--tiny")
            run.tiny = true;
        else if (a == "--corrupt-probe")
            run.corrupt_probe = true;
        else if (a == "--record-probes")
            record_probes = true;
        else
            return usage(("unknown argument " + a).c_str());
    }
    if (record_probes) {
        recordProbes(4);
        return 0;
    }
    if (run.workload != "dm_vqe" && run.workload != "clifford_ga" &&
        run.workload != "serve_mixed")
        return usage("unknown workload");
    if (trace_arg != "0" && trace_arg != "1")
        return usage("--trace takes 0 or 1");
    if (run.dir.empty() || run.probes_path.empty())
        return usage("--dir and --probes are required");
    run.trace = trace_arg == "1";
    run.pinned = pinnedFor(run.workload, std::thread::hardware_concurrency());

    const std::string omp = std::to_string(run.pinned.omp_threads);
    const char *have = std::getenv("OMP_NUM_THREADS");
    if (!have || omp != have) {
        setenv("OMP_NUM_THREADS", omp.c_str(), 1);
        execv("/proc/self/exe", argv);
        std::perror("eftbench: re-exec with OMP_NUM_THREADS");
        return 2;
    }

    try {
        if (run.workload == "dm_vqe")
            runDmVqe(run);
        else if (run.workload == "clifford_ga")
            runCliffordGa(run);
        else
            runServeMixed(run);
        if (run.trace)
            layerMetrics(run);
        else if (run.round_rss_mb.empty())
            run.metric("peak_rss_mb", peakRssMb(), "MiB");
        else
            // The first round: a fresh process doing the workload once,
            // as the program runs it (the probes and checks come after
            // the rounds). Later rounds reuse a heap that earlier rounds
            // fragmented, and on dm_vqe their peaks wander by up to a
            // third from round to round of one process.
            run.metric("peak_rss_mb", run.round_rss_mb.front(), "MiB");
    } catch (const std::exception &e) {
        run.check(false, std::string("threw: ") + e.what());
    }
    // The result line carries exactly the end-to-end (or, traced, the
    // per-layer) metrics; anything else goes to the table. A run that
    // failed part-way still names every metric, as 0 (correct is false).
    std::vector<std::string> names = {"setup_s", "wall_s", "evals_per_s",
                                      "requests_per_s", "peak_rss_mb"};
    if (run.trace) {
        names.clear();
        for (const LayerMetric &m : kLayers) {
            names.push_back(m.name);
            if (std::strcmp(m.name, "noise.dm_prepare_ms") == 0)
                names.push_back("noise.overhead_ms");
        }
        names.push_back("trace.overhead_frac");
    }
    std::vector<Metric> line;
    for (const std::string &name : names) {
        const auto it = std::find_if(run.metrics.begin(), run.metrics.end(),
                                     [&](const Metric &m) { return m.name == name; });
        if (it != run.metrics.end()) {
            line.push_back(*it);
        } else {
            run.check(false, "metric " + name + " not measured");
            line.push_back({name, 0.0, "", 0, ""});
        }
    }
    for (const Metric &m : run.metrics)
        if (std::find(names.begin(), names.end(), m.name) == names.end())
            run.report.push_back(m);
    run.metrics = std::move(line);

    const std::string host = hostRecord(run);
    if (run.trace) {
        const std::string path = run.dir + "/../trace-" + run.workload +
                                 "-s" + std::to_string(run.seed) + ".json";
        tracer().write(path, host);
        std::printf("trace: %zu spans -> %s\n", tracer().size(), path.c_str());
        for (const auto &[module, ms] : tracer().selfTimeMs())
            std::printf("self time %-10s %12.3f ms\n", module.c_str(), ms);
    }
    std::printf("host: %s\n", host.c_str());
    for (const auto &group : {run.report, run.metrics})
        for (const Metric &m : group)
            std::printf("%-30s %16.6f %-6s n=%-6zu %s\n", m.name.c_str(),
                        m.value, m.unit.c_str(), m.samples, m.source.c_str());
    std::printf("round walls (s, * = traced):");
    for (const auto &[traced, w] : run.walls)
        std::printf(" %.4f%s", w, traced ? "*" : "");
    std::printf("\nround peak rss (MiB):");
    for (const double mb : run.round_rss_mb)
        std::printf(" %.1f", mb);
    std::printf("\nfail_ratio %.6g (%zu of %zu)\n",
                run.attempted ? static_cast<double>(run.failed) /
                                    static_cast<double>(run.attempted)
                              : 0.0,
                run.failed, run.attempted);
    for (const std::string &f : run.failures)
        std::fprintf(stderr, "FAILED: %s\n", f.c_str());

    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                run.failed == 0 ? "true" : "false",
                std::max<size_t>(run.attempted, 1), run.failed);
    for (size_t i = 0; i < run.metrics.size(); ++i) {
        const Metric &m = run.metrics[i];
        std::printf("%s\"%s\": {\"value\": ", i ? ", " : "", m.name.c_str());
        printNumber(m.value);
        std::printf(", \"unit\": \"%s\"}", m.unit.c_str());
    }
    std::printf("}}\n");
    return 0;
}
