#include "bench.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include <sys/vfs.h>

#include "sim/simd.hpp"

namespace eftbench {

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

uint64_t
mix(uint64_t seed, uint64_t salt)
{
    uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB -> MiB
    return 0.0;
}

bool
resetPeakRss()
{
    std::ofstream out("/proc/self/clear_refs");
    out << "5";
    out.flush();
    return static_cast<bool>(out);
}

// --------------------------------------------------------------------
// Tracer
// --------------------------------------------------------------------

namespace {
thread_local long long tl_current = -1;
}

Tracer &
tracer()
{
    static Tracer t;
    return t;
}

double
Tracer::nowUs() const
{
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
}

long long
Tracer::begin(std::string name, uint64_t request, long long parent)
{
    Rec rec;
    rec.name = std::move(name);
    rec.request = request;
    rec.parent = parent;
    rec.start_us = nowUs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(rec));
    return static_cast<long long>(spans_.size()) - 1;
}

void
Tracer::end(long long id)
{
    const double t = nowUs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<size_t>(id)].end_us = t;
}

size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

std::map<std::string, double>
Tracer::selfTimeMs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::vector<size_t>> children(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].parent >= 0)
            children[static_cast<size_t>(spans_[i].parent)].push_back(i);
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Rec &s = spans_[i];
        // Union of the children's intervals, clipped to this span:
        // children on other threads may overlap each other.
        std::vector<std::pair<double, double>> iv;
        for (const size_t c : children[i])
            iv.emplace_back(std::max(s.start_us, spans_[c].start_us),
                            std::min(s.end_us, spans_[c].end_us));
        std::sort(iv.begin(), iv.end());
        double covered = 0.0, reach = s.start_us;
        for (const auto &[a, b] : iv) {
            const double from = std::max(a, reach);
            if (b > from) {
                covered += b - from;
                reach = b;
            }
        }
        const std::string module = s.name.substr(0, s.name.find('.'));
        out[module] += (s.end_us - s.start_us - covered) / 1000.0;
    }
    return out;
}

void
Tracer::write(const std::string &path, const std::string &header) const
{
    const auto self = selfTimeMs();
    std::ofstream os(path);
    os << "{\"host\": " << header << ",\n\"self_ms\": {";
    bool first = true;
    for (const auto &[module, ms] : self) {
        os << (first ? "" : ", ") << '"' << module << "\": " << ms;
        first = false;
    }
    os << "},\n\"spans\": [\n";
    std::lock_guard<std::mutex> lock(mutex_);
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Rec &s = spans_[i];
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "{\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                      "\"end_us\": %.3f, \"parent\": %lld, \"request\": %llu}",
                      i, s.name.c_str(), s.start_us, s.end_us, s.parent,
                      static_cast<unsigned long long>(s.request));
        os << buf << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    os << "]}\n";
}

Span::Span(const char *name, uint64_t request, long long parent)
{
    Tracer &t = tracer();
    if (!t.enabled())
        return;
    saved_ = tl_current;
    id_ = t.begin(name, request, parent == -2 ? tl_current : parent);
    tl_current = id_;
}

Span::~Span()
{
    if (id_ < 0)
        return;
    tracer().end(id_);
    tl_current = saved_;
}

void
addDistinctFraction(Samples &samples, const std::vector<uint64_t> &hashes)
{
    if (hashes.empty())
        return;
    const std::set<uint64_t> distinct(hashes.begin(), hashes.end());
    samples.add("vqa.distinct_circuit_frac",
                static_cast<double>(distinct.size()) /
                    static_cast<double>(hashes.size()));
}

// --------------------------------------------------------------------
// Run
// --------------------------------------------------------------------

bool
Run::check(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        if (failures.size() < 20)
            failures.push_back(what);
    }
    return ok;
}

void
Run::metric(std::string name, double value, std::string unit,
            size_t n, std::string source)
{
    metrics.push_back({std::move(name), value, std::move(unit), n,
                       std::move(source)});
}

void
Run::note(std::string name, double value, std::string unit, size_t n)
{
    report.push_back({std::move(name), value, std::move(unit), n, ""});
}

size_t
runRounds(Run &run, size_t min_rounds,
          const std::function<void(size_t, bool)> &round)
{
    const auto t0 = Clock::now();
    size_t r = 0;
    // A traced run alternates untraced and traced rounds, so the trace
    // overhead compares rounds of one process under one load.
    while (r < min_rounds || msSince(t0) < 1000.0 * run.seconds) {
        const bool traced = run.trace && (r % 2 == 1);
        const bool rss_reset = resetPeakRss();
        tracer().enable(traced);
        round(r, traced);
        tracer().enable(false);
        if (rss_reset)
            run.round_rss_mb.push_back(peakRssMb());
        ++r;
    }
    // A traced run keeps tracing through its layer re-drives.
    tracer().enable(run.trace);
    return r;
}

// --------------------------------------------------------------------
// Host record
// --------------------------------------------------------------------

namespace {

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    return "unknown";
}

std::string
filesystemOf(const std::string &path)
{
    struct statfs fs{};
    if (statfs(path.c_str(), &fs) != 0)
        return "unknown";
    switch (static_cast<unsigned long>(fs.f_type)) {
      case 0xEF53: return "ext4";
      case 0x01021994: return "tmpfs";
      case 0x58465342: return "xfs";
      case 0x9123683E: return "btrfs";
      case 0x794C7630: return "overlayfs";
      default: {
          char buf[32];
          std::snprintf(buf, sizeof(buf), "0x%lx",
                        static_cast<unsigned long>(fs.f_type));
          return buf;
      }
    }
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

} // namespace

std::string
hostRecord(const Run &run)
{
    const Pinned &p = run.pinned;
    std::ostringstream os;
    os << "{\"workload\": " << quoted(run.workload) << ", \"seed\": " << run.seed
       << ", \"seconds\": " << run.seconds << ", \"trace\": " << run.trace
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"cpu_model\": " << quoted(cpuModel())
       << ", \"simd_compiled\": " << quoted(eftvqa::simd::kCompiledIsa)
       << ", \"simd_active\": " << quoted(eftvqa::simd::activeIsa())
       << ", \"compiler\": " << quoted(EFTBENCH_COMPILER)
       << ", \"build_type\": " << quoted(EFTBENCH_BUILD_TYPE)
       << ", \"store_fs\": " << quoted(filesystemOf(run.dir))
       << ", \"commit\": " << quoted(run.commit)
       << ", \"threads\": {\"omp\": " << p.omp_threads
       << ", \"cell_workers\": " << p.cell_workers
       << ", \"executor_threads\": " << p.executor_threads
       << ", \"daemon_workers\": " << p.daemon_workers
       << ", \"clients\": " << p.clients
       << ", \"inflight_per_client\": " << p.inflight_per_client << "}}";
    return os.str();
}

std::map<std::string, double>
loadProbes(const std::string &path)
{
    std::map<std::string, double> out;
    std::ifstream in(path);
    std::string name;
    std::string value;
    while (in >> name >> value)
        out[name] = std::stod(value);
    return out;
}

} // namespace eftbench
