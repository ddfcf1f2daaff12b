/**
 * @file
 * The VQA layer's worker-pool executor.
 *
 * One small pool of std::thread workers draining a FIFO job queue.
 * Extracted from ExperimentSession (which layers per-regime FIFOs on
 * top of it for its submit() ordering contract) so the sweep layer
 * (vqa/sweep.hpp) can schedule whole experiment cells on the same
 * executor instead of growing a second thread pool implementation.
 *
 * Threads are spawned lazily on the first enqueue(), so owners that
 * never go async never pay for workers. The destructor drains the
 * queue, waits for in-flight jobs and joins. Owners normally route
 * exceptions themselves (packaged_task futures in the session, the
 * per-cell outcome slots in the sweep runner); as a backstop, a job
 * that does throw is caught in the worker loop and routed to the
 * owner-installed error hook (or stashed in firstError()) instead of
 * reaching std::terminate.
 */

#ifndef EFTVQA_VQA_EXECUTOR_HPP
#define EFTVQA_VQA_EXECUTOR_HPP

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace eftvqa {

/**
 * Most workers a configuration may ask for: ServeConfig::workers and
 * SweepSpec's and ExperimentSpec's worker counts are validated against
 * it. A pool starts all its workers at once, so a count mistyped by a
 * few digits fails validation instead of asking the host for a million
 * threads or processes.
 */
inline constexpr size_t kMaxWorkers = 1024;

/** Throws std::invalid_argument naming @p field and the limit when
 *  @p count exceeds kMaxWorkers. */
void checkWorkerCount(const char *field, size_t count);

class WorkerPool
{
  public:
    /** @p threads workers; 0 picks a small default from the hardware
     *  concurrency (min(4, hw)). Nothing is spawned until the first
     *  enqueue(). */
    explicit WorkerPool(size_t threads = 0);

    /** Waits for every enqueued job, then stops and joins. */
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /**
     * Enqueue a job; spawns the workers on first use. If the pool is
     * already stopping (destructor racing a late producer), the job
     * runs inline on the calling thread rather than being stranded in
     * a queue no worker will drain.
     */
    void enqueue(std::function<void()> job);

    /** Block until the queue is empty and no job is executing. */
    void waitIdle();

    /** Worker count the pool runs (resolved from the ctor argument). */
    size_t threadCount() const { return threads_; }

    /**
     * Install a hook that receives the exception_ptr of any throwing
     * job. Install before the first enqueue; the hook may run on any
     * worker thread. Without a hook the first exception is stashed
     * (firstError()) and later ones are dropped.
     */
    void setErrorHandler(std::function<void(std::exception_ptr)> handler);

    /** First stashed job exception when no handler was installed. */
    std::exception_ptr firstError() const;

  private:
    void workerLoop();
    void runGuarded(std::function<void()> &job);

    size_t threads_;
    mutable std::mutex mutex_;
    std::condition_variable work_cv_;
    std::condition_variable idle_cv_;
    std::deque<std::function<void()>> queue_;
    std::vector<std::thread> workers_;
    std::function<void(std::exception_ptr)> error_handler_;
    std::exception_ptr first_error_;
    size_t busy_ = 0;
    bool stop_ = false;
};

} // namespace eftvqa

#endif // EFTVQA_VQA_EXECUTOR_HPP
