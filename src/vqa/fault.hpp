/**
 * @file
 * Fault-tolerance primitives for the VQA layer.
 *
 * Three pieces, one header:
 *
 *  - An error taxonomy (`ResourceError`, `TimeoutError`,
 *    `CancelledError`, `InjectedFault`, `CrashError` for worker
 *    processes that die instead of answering, `RemoteCellError` for
 *    exceptions relayed across a process boundary) plus
 *    `classifyCurrentException()`, which maps whatever is in flight
 *    inside a catch block onto a small `ErrorCategory` enum so the
 *    sweep runner can record structured per-cell outcomes.
 *
 *  - A cooperative `CancelToken` with an optional soft deadline.
 *    `ExperimentSession` installs one per sweep-cell attempt and the
 *    estimation engine calls `checkpoint()` at its serial entry
 *    points, so a runaway cell times out cleanly at the next
 *    checkpoint instead of being killed mid-thread. `CancelScope`
 *    additionally publishes the token thread-locally so the sim layer
 *    can honor the same deadline via `cancelCheckpoint()`: before each
 *    compiled statevector run and before each density-matrix pass.
 *
 *  - A seeded `FaultInjector` singleton with named probe points
 *    compiled into the stack (`cell.start`, `engine.energy`,
 *    `sink.write`, `alloc.backend`). Disarmed, a probe is a single
 *    relaxed atomic load; armed, it can deterministically inject
 *    throws, delays, `std::bad_alloc` — and, for processes that opt
 *    in via an abort allowance, real SIGABRT process deaths — from
 *    per-point RNG streams forked off one seed. Tests and CI use it
 *    to pin the containment behavior, including the bit-identity
 *    contract: under `FaultPolicy::isolate` with retries, surviving
 *    cells' rows stay byte-identical to a fault-free run.
 *
 * This header lives in vqa/ but depends only on common/, so the dense
 * sim backends can include it to raise `ResourceError` and hit the
 * `alloc.backend` probe without a layering cycle.
 */

#ifndef EFTVQA_VQA_FAULT_HPP
#define EFTVQA_VQA_FAULT_HPP

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <new>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"

namespace eftvqa {

// ---------------------------------------------------------------------------
// Error taxonomy
// ---------------------------------------------------------------------------

/**
 * Structured allocation failure: a backend could not materialize its
 * amplitude storage. Carries the qubit count and the byte request so a
 * quarantined cell names the resource that was exhausted instead of
 * surfacing a bare std::bad_alloc from deep inside a worker.
 */
class ResourceError : public std::runtime_error
{
  public:
    ResourceError(const std::string &component, size_t n_qubits,
                  size_t bytes)
        : std::runtime_error(component + ": cannot allocate " +
                             std::to_string(bytes) + " bytes for " +
                             std::to_string(n_qubits) + " qubits"),
          qubits_(n_qubits), bytes_(bytes)
    {
    }

    size_t qubits() const { return qubits_; }
    size_t bytes() const { return bytes_; }

  private:
    size_t qubits_;
    size_t bytes_;
};

/** A cooperative soft deadline was exceeded (see CancelToken). */
class TimeoutError : public std::runtime_error
{
  public:
    TimeoutError(double elapsed_ms, double limit_ms)
        : std::runtime_error("soft deadline of " +
                             std::to_string(limit_ms) +
                             " ms exceeded (elapsed " +
                             std::to_string(elapsed_ms) + " ms)"),
          elapsed_ms_(elapsed_ms), limit_ms_(limit_ms)
    {
    }

    double elapsedMs() const { return elapsed_ms_; }
    double limitMs() const { return limit_ms_; }

  private:
    double elapsed_ms_;
    double limit_ms_;
};

/** The owner cancelled the work via CancelToken::cancel(). */
class CancelledError : public std::runtime_error
{
  public:
    CancelledError() : std::runtime_error("work cancelled by owner") {}
};

/** Thrown by an armed FaultInjector probe (FaultKind::Throw). */
class InjectedFault : public std::runtime_error
{
  public:
    InjectedFault(const std::string &point, size_t injection_index)
        : std::runtime_error("injected fault #" +
                             std::to_string(injection_index) +
                             " at probe '" + point + "'")
    {
    }
};

/** Coarse error classes recorded in per-cell outcomes. */
enum class ErrorCategory
{
    invalid_argument, ///< spec/shape validation (std::invalid_argument)
    resource,         ///< ResourceError / std::bad_alloc
    timeout,          ///< TimeoutError (soft deadline) / watchdog kill
    cancelled,        ///< CancelledError (owner cancel)
    crash,            ///< CrashError (a worker process died)
    runtime,          ///< any other std::exception
    unknown,          ///< a non-standard exception type
};

/** Stable lowercase name for an ErrorCategory ("timeout", ...). */
const char *errorCategoryName(ErrorCategory category);

/** Inverse of errorCategoryName (unknown names map to unknown). */
ErrorCategory errorCategoryFromName(std::string_view name);

/**
 * A worker process died instead of answering: killed by a signal
 * (SIGSEGV, SIGABRT, a SIGKILL that was not ours — likely the kernel
 * OOM killer — all spelled out in what()), exited without a result,
 * or SIGKILLed by the supervisor watchdog on a missed heartbeat or an
 * expired hard deadline. Raised supervisor-side by ProcessPool from
 * the waitpid status; watchdog kills classify as timeout (they are
 * the non-cooperative complement of the CancelToken soft deadline),
 * everything else as crash.
 */
class CrashError : public std::runtime_error
{
  public:
    CrashError(const std::string &what, int signal_number,
               int exit_status, bool watchdog_kill)
        : std::runtime_error(what), signal_(signal_number),
          exit_status_(exit_status), watchdog_(watchdog_kill)
    {
    }

    /** Terminating signal, or 0 when the worker exited. */
    int signalNumber() const { return signal_; }

    /** Exit status when the worker exited, else 0. */
    int exitStatus() const { return exit_status_; }

    /** True when the supervisor watchdog sent the SIGKILL. */
    bool watchdogKill() const { return watchdog_; }

    ErrorCategory category() const
    {
        return watchdog_ ? ErrorCategory::timeout : ErrorCategory::crash;
    }

  private:
    int signal_ = 0;
    int exit_status_ = 0;
    bool watchdog_ = false;
};

/**
 * An exception a worker process caught and reported over the wire:
 * carries the classified category across the process boundary, so a
 * supervisor-side rethrow flows through the same retry/quarantine
 * paths as the original exception would have in-process.
 */
class RemoteCellError : public std::runtime_error
{
  public:
    RemoteCellError(ErrorCategory category, const std::string &what)
        : std::runtime_error(what), category_(category)
    {
    }

    ErrorCategory category() const { return category_; }

  private:
    ErrorCategory category_;
};

/** Category + what() captured from the in-flight exception. */
struct ClassifiedError
{
    ErrorCategory category = ErrorCategory::unknown;
    std::string what;
};

/**
 * Classify the exception currently being handled. Must be called from
 * inside a catch block (it rethrows internally to dispatch on type).
 */
ClassifiedError classifyCurrentException();

// ---------------------------------------------------------------------------
// Cooperative cancellation
// ---------------------------------------------------------------------------

/**
 * A cancellation flag plus an optional soft deadline, checked
 * cooperatively: long-running loops call checkpoint(), which throws
 * CancelledError or TimeoutError when the token has tripped. The
 * deadline is configured once (setDeadline, before the token is
 * shared); cancel() may be called from any thread at any time.
 */
class CancelToken
{
  public:
    /** Trip the token; the next checkpoint() throws CancelledError. */
    void cancel() { cancelled_.store(true, std::memory_order_relaxed); }

    bool cancelled() const
    {
        return cancelled_.load(std::memory_order_relaxed);
    }

    /**
     * Arm a soft deadline @p limit_ms from now. Call before handing
     * the token to workers — the deadline fields are not synchronized
     * against concurrent checkpoint() calls.
     */
    void setDeadline(double limit_ms)
    {
        armed_at_ = std::chrono::steady_clock::now();
        limit_ms_ = limit_ms;
        has_deadline_ = limit_ms > 0.0;
    }

    bool hasDeadline() const { return has_deadline_; }
    double limitMs() const { return limit_ms_; }

    /** Milliseconds since the deadline was armed (0 when unarmed). */
    double elapsedMs() const;

    /** True once the soft deadline has passed. */
    bool expired() const
    {
        return has_deadline_ && elapsedMs() > limit_ms_;
    }

    /** Throw CancelledError / TimeoutError if the token has tripped. */
    void checkpoint() const;

  private:
    std::atomic<bool> cancelled_{false};
    bool has_deadline_ = false;
    double limit_ms_ = 0.0;
    std::chrono::steady_clock::time_point armed_at_{};
};

namespace detail {
/**
 * The calling thread's active cancel token slot (see CancelScope).
 * Function-local, not an extern thread_local defined in fault.cpp:
 * GCC 12's UBSan reports stores to that as stores to a null pointer.
 */
inline const CancelToken *&
activeCancelSlot()
{
    thread_local const CancelToken *slot = nullptr;
    return slot;
}
} // namespace detail

/**
 * RAII: publish @p token as the calling thread's active cancel token
 * so deep compute loops that never see a session — the entry of
 * Statevector::runCompiled and each pass of a density-matrix stream —
 * can observe soft deadlines via cancelCheckpoint() without plumbing
 * a token through the sim layer. Scopes nest; the previous token is
 * restored on destruction. The token must outlive the scope.
 */
class CancelScope
{
  public:
    explicit CancelScope(const CancelToken *token)
        : prev_(detail::activeCancelSlot())
    {
        detail::activeCancelSlot() = token;
    }

    ~CancelScope() { detail::activeCancelSlot() = prev_; }

    CancelScope(const CancelScope &) = delete;
    CancelScope &operator=(const CancelScope &) = delete;

  private:
    const CancelToken *prev_;
};

/**
 * Checkpoint the calling thread's active cancel token, if any: throws
 * CancelledError / TimeoutError once the token has tripped, else a
 * thread-local load. Call only where a throw unwinds cleanly (never
 * from inside an OpenMP parallel region).
 */
inline void
cancelCheckpoint()
{
    if (const CancelToken *token = detail::activeCancelSlot())
        token->checkpoint();
}

/**
 * The calling thread's active cancel token (null when none). For hot
 * loops that must poll cancellation *inside* an OpenMP parallel region,
 * where cancelCheckpoint()'s throw would be fatal: capture the token
 * before the region, poll token->cancelled()/expired() non-throwingly
 * inside it, and call cancelCheckpoint() after the region so the throw
 * unwinds on the calling thread. The tableau trajectory farms in
 * stabilizer/noisy_clifford.cpp are the exemplar.
 */
inline const CancelToken *
activeCancelToken()
{
    return detail::activeCancelSlot();
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/** What an armed probe does when its spec decides to inject. */
enum class FaultKind
{
    Throw,    ///< throw InjectedFault
    Delay,    ///< sleep for FaultSpec::delay_ms
    BadAlloc, ///< throw std::bad_alloc
    Abort,    ///< raise SIGABRT — a real, uncatchable process death.
              ///< Gated: fires only while the process-wide abort
              ///< allowance is non-zero (see setAbortAllowance), so
              ///< an armed plan is harmless until the process-
              ///< isolation harness (or a test) opts the process in.
};

/**
 * One injection rule. A spec watches a single probe point; each hit
 * past `skip` injects with `probability` until `max_injections` have
 * fired. Probability draws come from a per-spec RNG stream forked off
 * the arm() seed, so a given (seed, plan) replays identically.
 */
struct FaultSpec
{
    std::string point;           ///< probe point name, e.g. "engine.energy"
    FaultKind kind = FaultKind::Throw;
    double probability = 1.0;    ///< per-eligible-hit injection chance
    size_t skip = 0;             ///< let the first `skip` hits pass
    size_t max_injections = SIZE_MAX; ///< stop after this many
    double delay_ms = 0.0;       ///< sleep length for FaultKind::Delay
};

/**
 * Process-wide, seeded fault-injection harness. Probe points are
 * compiled into the stack permanently; `faultProbe()` costs one
 * relaxed atomic load while disarmed (see the fault_overhead bench
 * gate). arm() installs a plan and starts counting hits per point —
 * arming with an empty plan turns the injector into a pure probe
 * counter, which is how the bench measures probes-per-energy.
 */
class FaultInjector
{
  public:
    static FaultInjector &instance();

    /** Install @p plan seeded by @p seed and start counting hits. */
    void arm(uint64_t seed, std::vector<FaultSpec> plan);

    /** Drop the plan and counters; probes return to the cheap path. */
    void disarm();

    bool armed() const;
    uint64_t seed() const;

    /** Hits observed at @p point since the last arm(). */
    size_t hits(std::string_view point) const;

    /** Injections fired at @p point since the last arm(). */
    size_t injected(std::string_view point) const;

    /** Total hits across all points since the last arm(). */
    size_t totalHits() const;

    /**
     * Seed parsed from the EFTVQA_FAULTS environment variable
     * (decimal or 0x-hex), or nullopt when unset/empty. The CI
     * fault-matrix job uses this to sweep injection seeds through the
     * test binary without rebuilding.
     */
    static std::optional<uint64_t> envSeed();

    /**
     * Opt this process into FaultKind::Abort injections, at most @p n
     * of them. Defaults to 0 (gated off) and resets to 0 on disarm(),
     * so an abort plan armed in a test or driver can never kill the
     * arming process — only a worker process that the ProcessPool
     * supervisor explicitly granted an allowance to after fork (it
     * relays the plan's remaining global abort budget to each spawn,
     * so respawned workers cannot re-fire aborts already spent by
     * their predecessors).
     */
    void setAbortAllowance(size_t n);

    /** Remaining Abort injections this process may fire. */
    size_t abortAllowance() const;

    /** Sum of max_injections across the armed plan's Abort specs
     *  (saturating) — the global abort budget the supervisor splits
     *  across worker processes. */
    size_t plannedAbortBudget() const;

    /** Slow path behind faultProbe(); not part of the public API. */
    void fire(const char *point);

  private:
    FaultInjector() = default;

    struct ArmedSpec
    {
        FaultSpec spec;
        Rng rng{0};
        size_t hits = 0;
        size_t injected = 0;
    };

    struct PointCount
    {
        std::string point;
        size_t hits = 0;
        size_t injected = 0;
    };

    PointCount *findCount(std::string_view point);
    const PointCount *findCount(std::string_view point) const;

    mutable std::mutex mutex_;
    uint64_t seed_ = 0;
    size_t abort_allowance_ = 0;
    std::vector<ArmedSpec> specs_;
    std::vector<PointCount> counts_;
};

namespace detail {
/** Armed flag read by every probe; flipped only by arm()/disarm(). */
extern std::atomic<bool> g_faults_armed;
} // namespace detail

/**
 * A named probe point. Near-free while the injector is disarmed; the
 * armed slow path counts the hit and may inject per the active plan.
 * Call only from serial code or where a thrown exception is already
 * contained (never from inside an OpenMP parallel region).
 */
inline void
faultProbe(const char *point)
{
    if (detail::g_faults_armed.load(std::memory_order_relaxed))
        FaultInjector::instance().fire(point);
}

// ---------------------------------------------------------------------------
// Deterministic retry backoff
// ---------------------------------------------------------------------------

/**
 * Backoff before retry number @p attempt (1-based: the delay after the
 * first failed attempt) of the cell identified by @p content_key.
 * Exponential in the attempt with a jitter factor in [0.5, 1.5) drawn
 * from an RNG seeded by (content_key, attempt) — no wall-clock
 * randomness, so a rerun of the same sweep sleeps the same schedule.
 * Returns 0 when @p base_ms <= 0.
 */
double retryBackoffMs(uint64_t content_key, size_t attempt,
                      double base_ms, double max_ms = 2000.0);

} // namespace eftvqa

#endif // EFTVQA_VQA_FAULT_HPP
