#include "vqa/executor.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace eftvqa {

void
checkWorkerCount(const char *field, size_t count)
{
    if (count > kMaxWorkers)
        throw std::invalid_argument(
            std::string(field) + ": must be <= " +
            std::to_string(kMaxWorkers) + " (got " +
            std::to_string(count) + ")");
}

WorkerPool::WorkerPool(size_t threads) : threads_(threads)
{
    if (threads_ == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        threads_ = std::min<size_t>(4, hw == 0 ? 1 : hw);
    }
}

WorkerPool::~WorkerPool()
{
    waitIdle();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread &w : workers_)
        w.join();
    // Workers drain the queue even while stopping, but a producer
    // racing the join could still have slipped a job in after the
    // last worker exited; run any stragglers here so no job is lost.
    while (!queue_.empty()) {
        std::function<void()> job = std::move(queue_.front());
        queue_.pop_front();
        runGuarded(job);
    }
}

void
WorkerPool::enqueue(std::function<void()> job)
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (stop_) {
            // Stopping: no worker is guaranteed to drain the queue
            // again, so run inline instead of stranding the job.
            lock.unlock();
            runGuarded(job);
            return;
        }
        if (workers_.empty()) {
            workers_.reserve(threads_);
            for (size_t i = 0; i < threads_; ++i)
                workers_.emplace_back([this] { workerLoop(); });
        }
        queue_.push_back(std::move(job));
    }
    work_cv_.notify_one();
}

void
WorkerPool::waitIdle()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idle_cv_.wait(lock, [this] { return busy_ == 0 && queue_.empty(); });
}

void
WorkerPool::setErrorHandler(std::function<void(std::exception_ptr)> handler)
{
    std::lock_guard<std::mutex> lock(mutex_);
    error_handler_ = std::move(handler);
}

std::exception_ptr
WorkerPool::firstError() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return first_error_;
}

void
WorkerPool::runGuarded(std::function<void()> &job)
{
    try {
        job();
    } catch (...) {
        std::function<void(std::exception_ptr)> handler;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            handler = error_handler_;
            if (!handler && !first_error_)
                first_error_ = std::current_exception();
        }
        if (handler) {
            try {
                handler(std::current_exception());
            } catch (...) {
                // A throwing hook must not take down the worker;
                // stash its exception as a last resort.
                std::lock_guard<std::mutex> lock(mutex_);
                if (!first_error_)
                    first_error_ = std::current_exception();
            }
        }
    }
}

void
WorkerPool::workerLoop()
{
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            work_cv_.wait(lock,
                          [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping and drained
            job = std::move(queue_.front());
            queue_.pop_front();
            ++busy_;
        }
        runGuarded(job);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --busy_;
            if (busy_ == 0 && queue_.empty())
                idle_cv_.notify_all();
        }
    }
}

} // namespace eftvqa
