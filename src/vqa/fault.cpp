#include "vqa/fault.hpp"

#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <thread>

namespace eftvqa {

namespace detail {
std::atomic<bool> g_faults_armed{false};
} // namespace detail

namespace {

// FNV-1a, local copy so this header stays dependency-free of the
// estimation layer's hash helpers.
uint64_t
fnv1a64(std::string_view text)
{
    uint64_t h = 0xCBF29CE484222325ull;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001B3ull;
    }
    return h;
}

} // namespace

const char *
errorCategoryName(ErrorCategory category)
{
    switch (category) {
    case ErrorCategory::invalid_argument:
        return "invalid_argument";
    case ErrorCategory::resource:
        return "resource";
    case ErrorCategory::timeout:
        return "timeout";
    case ErrorCategory::cancelled:
        return "cancelled";
    case ErrorCategory::crash:
        return "crash";
    case ErrorCategory::runtime:
        return "runtime";
    case ErrorCategory::unknown:
        break;
    }
    return "unknown";
}

ErrorCategory
errorCategoryFromName(std::string_view name)
{
    for (const ErrorCategory c :
         {ErrorCategory::invalid_argument, ErrorCategory::resource,
          ErrorCategory::timeout, ErrorCategory::cancelled,
          ErrorCategory::crash, ErrorCategory::runtime,
          ErrorCategory::unknown})
        if (name == errorCategoryName(c))
            return c;
    return ErrorCategory::unknown;
}

ClassifiedError
classifyCurrentException()
{
    try {
        throw;
    } catch (const CrashError &e) {
        return {e.category(), e.what()};
    } catch (const RemoteCellError &e) {
        return {e.category(), e.what()};
    } catch (const TimeoutError &e) {
        return {ErrorCategory::timeout, e.what()};
    } catch (const CancelledError &e) {
        return {ErrorCategory::cancelled, e.what()};
    } catch (const ResourceError &e) {
        return {ErrorCategory::resource, e.what()};
    } catch (const std::bad_alloc &e) {
        return {ErrorCategory::resource, e.what()};
    } catch (const std::invalid_argument &e) {
        return {ErrorCategory::invalid_argument, e.what()};
    } catch (const std::exception &e) {
        return {ErrorCategory::runtime, e.what()};
    } catch (...) {
        return {ErrorCategory::unknown, "non-standard exception"};
    }
}

double
CancelToken::elapsedMs() const
{
    if (!has_deadline_)
        return 0.0;
    const auto now = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(now - armed_at_)
        .count();
}

void
CancelToken::checkpoint() const
{
    if (cancelled())
        throw CancelledError();
    if (has_deadline_) {
        const double elapsed = elapsedMs();
        if (elapsed > limit_ms_)
            throw TimeoutError(elapsed, limit_ms_);
    }
}

FaultInjector &
FaultInjector::instance()
{
    static FaultInjector injector;
    return injector;
}

void
FaultInjector::arm(uint64_t seed, std::vector<FaultSpec> plan)
{
    std::lock_guard<std::mutex> lock(mutex_);
    seed_ = seed;
    counts_.clear();
    specs_.clear();
    specs_.reserve(plan.size());
    for (size_t i = 0; i < plan.size(); ++i) {
        ArmedSpec armed;
        armed.spec = std::move(plan[i]);
        // One stream per spec, derived from (seed, point, spec index)
        // so reordering the plan for unrelated points does not shift
        // another spec's draws.
        armed.rng = Rng(seed ^ fnv1a64(armed.spec.point) ^
                        (0x9E3779B97F4A7C15ull * (i + 1)));
        specs_.push_back(std::move(armed));
    }
    detail::g_faults_armed.store(true, std::memory_order_relaxed);
}

void
FaultInjector::disarm()
{
    std::lock_guard<std::mutex> lock(mutex_);
    detail::g_faults_armed.store(false, std::memory_order_relaxed);
    specs_.clear();
    counts_.clear();
    seed_ = 0;
    abort_allowance_ = 0;
}

void
FaultInjector::setAbortAllowance(size_t n)
{
    std::lock_guard<std::mutex> lock(mutex_);
    abort_allowance_ = n;
}

size_t
FaultInjector::abortAllowance() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return abort_allowance_;
}

size_t
FaultInjector::plannedAbortBudget() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    size_t total = 0;
    for (const ArmedSpec &armed : specs_) {
        if (armed.spec.kind != FaultKind::Abort)
            continue;
        if (armed.spec.max_injections >= SIZE_MAX - total)
            return SIZE_MAX;
        total += armed.spec.max_injections;
    }
    return total;
}

bool
FaultInjector::armed() const
{
    return detail::g_faults_armed.load(std::memory_order_relaxed);
}

uint64_t
FaultInjector::seed() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return seed_;
}

FaultInjector::PointCount *
FaultInjector::findCount(std::string_view point)
{
    for (PointCount &c : counts_)
        if (c.point == point)
            return &c;
    return nullptr;
}

const FaultInjector::PointCount *
FaultInjector::findCount(std::string_view point) const
{
    for (const PointCount &c : counts_)
        if (c.point == point)
            return &c;
    return nullptr;
}

size_t
FaultInjector::hits(std::string_view point) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const PointCount *c = findCount(point);
    return c ? c->hits : 0;
}

size_t
FaultInjector::injected(std::string_view point) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const PointCount *c = findCount(point);
    return c ? c->injected : 0;
}

size_t
FaultInjector::totalHits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    size_t total = 0;
    for (const PointCount &c : counts_)
        total += c.hits;
    return total;
}

std::optional<uint64_t>
FaultInjector::envSeed()
{
    const char *raw = std::getenv("EFTVQA_FAULTS");
    if (raw == nullptr || *raw == '\0')
        return std::nullopt;
    char *end = nullptr;
    const unsigned long long value = std::strtoull(raw, &end, 0);
    if (end == raw)
        return std::nullopt;
    return static_cast<uint64_t>(value);
}

void
FaultInjector::fire(const char *point)
{
    FaultKind kind = FaultKind::Delay;
    double delay_ms = 0.0;
    size_t injection_index = 0;
    bool inject = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!detail::g_faults_armed.load(std::memory_order_relaxed))
            return; // raced a disarm()
        PointCount *count = findCount(point);
        if (count == nullptr) {
            counts_.push_back(PointCount{point, 0, 0});
            count = &counts_.back();
        }
        ++count->hits;
        for (ArmedSpec &armed : specs_) {
            if (armed.spec.point != point)
                continue;
            ++armed.hits;
            if (armed.hits <= armed.spec.skip)
                continue;
            if (armed.injected >= armed.spec.max_injections)
                continue;
            // Abort specs are gated on the process allowance (the hit
            // and skip accounting above still ran, so the per-process
            // hit sequence stays identical whether or not the gate is
            // open — determinism of the other specs is unaffected).
            if (armed.spec.kind == FaultKind::Abort &&
                abort_allowance_ == 0)
                continue;
            if (armed.spec.probability < 1.0 &&
                armed.rng.uniform() >= armed.spec.probability)
                continue;
            ++armed.injected;
            ++count->injected;
            if (armed.spec.kind == FaultKind::Abort &&
                abort_allowance_ != SIZE_MAX)
                --abort_allowance_;
            kind = armed.spec.kind;
            delay_ms = armed.spec.delay_ms;
            injection_index = armed.injected;
            inject = true;
            break;
        }
    }
    if (!inject)
        return;
    switch (kind) {
    case FaultKind::Delay:
        if (delay_ms > 0.0)
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(delay_ms));
        return;
    case FaultKind::BadAlloc:
        throw std::bad_alloc();
    case FaultKind::Abort:
        // A real, deterministic process death: restore the default
        // SIGABRT disposition first so no handler (gtest's death-test
        // machinery, a sanitizer hook) can swallow it, then raise.
        std::signal(SIGABRT, SIG_DFL);
        std::raise(SIGABRT);
        std::_Exit(134); // unreachable unless SIGABRT is blocked
    case FaultKind::Throw:
        break;
    }
    throw InjectedFault(point, injection_index);
}

double
retryBackoffMs(uint64_t content_key, size_t attempt, double base_ms,
               double max_ms)
{
    if (base_ms <= 0.0)
        return 0.0;
    Rng rng(content_key ^ (0x9E3779B97F4A7C15ull * (attempt + 1)));
    const double jitter = 0.5 + rng.uniform();
    const size_t shift = std::min<size_t>(attempt > 0 ? attempt - 1 : 0, 20);
    const double delay =
        base_ms * static_cast<double>(uint64_t{1} << shift) * jitter;
    return std::min(delay, max_ms);
}

} // namespace eftvqa
