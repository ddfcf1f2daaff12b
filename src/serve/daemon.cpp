#include "serve/daemon.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/json.hpp"
#include "vqa/procpool.hpp"
#include "vqa/storefmt.hpp"

namespace eftvqa {
namespace serve {

namespace {

void
setCloexec(int fd)
{
    const int flags = fcntl(fd, F_GETFD);
    if (flags >= 0)
        fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
}

/** One nonblocking drain of whatever bytes the peer sent. Returns
 *  false when the peer is gone (EOF or a hard error). */
bool
drainSocket(int fd, FrameBuffer &frames)
{
    char buf[64 * 1024];
    for (;;) {
        const ssize_t n = recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
        if (n > 0) {
            frames.append(buf, static_cast<size_t>(n));
            if (static_cast<size_t>(n) < sizeof(buf))
                return true;
            continue;
        }
        if (n == 0)
            return false; // clean EOF
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return true;
        if (errno == EINTR)
            continue;
        return false;
    }
}

std::string
makePongFrame(long long id)
{
    std::ostringstream oss;
    JsonWriter json(oss);
    json.beginInlineObject();
    json.field("type", "pong");
    json.field("id", id);
    json.endInlineObject();
    return oss.str();
}

std::string
makeOkFrame(long long id, const std::string &key,
            const std::string &line)
{
    std::ostringstream oss;
    JsonWriter json(oss);
    json.beginInlineObject();
    json.field("type", "ok");
    json.field("id", id);
    json.field("key", key);
    // The checksummed store line rides as an escaped string field,
    // exactly like the ProcessPool ok-frame payload.
    json.field("payload", line);
    json.endInlineObject();
    return oss.str();
}

std::string
makeErrFrame(long long id, const char *code, const char *category,
             const std::string &error)
{
    std::ostringstream oss;
    JsonWriter json(oss);
    json.beginInlineObject();
    json.field("type", "err");
    json.field("id", id);
    json.field("code", code);
    json.field("category", category);
    json.field("error", error);
    json.endInlineObject();
    return oss.str();
}

/** Throws std::invalid_argument naming @p field and the limit when
 *  @p count exceeds kMaxAdmitted. */
void
checkAdmissionCount(const char *field, size_t count)
{
    if (count > kMaxAdmitted)
        throw std::invalid_argument(
            std::string(field) + ": must be <= " +
            std::to_string(kMaxAdmitted) + " (got " +
            std::to_string(count) + ")");
}

} // namespace

void
ServeConfig::validate() const
{
    if (socket_path.empty())
        throw std::invalid_argument(
            "ServeConfig.socket_path: must be non-empty");
    sockaddr_un addr{};
    if (socket_path.size() >= sizeof(addr.sun_path))
        throw std::invalid_argument(
            "ServeConfig.socket_path: '" + socket_path +
            "' exceeds the sockaddr_un path limit (" +
            std::to_string(sizeof(addr.sun_path) - 1) + " bytes)");
    checkWorkerCount("ServeConfig.workers", workers);
    if (max_pending == 0)
        throw std::invalid_argument(
            "ServeConfig.max_pending: must be > 0 (a daemon that can "
            "queue nothing rejects every request)");
    if (per_client_inflight == 0)
        throw std::invalid_argument(
            "ServeConfig.per_client_inflight: must be > 0");
    checkAdmissionCount("ServeConfig.max_pending", max_pending);
    checkAdmissionCount("ServeConfig.per_client_inflight",
                        per_client_inflight);
    if (cache_capacity == 0)
        throw std::invalid_argument(
            "ServeConfig.cache_capacity: must be > 0");
    if (cell_timeout_ms < 0.0)
        throw std::invalid_argument(
            "ServeConfig.cell_timeout_ms: must be >= 0");
}

Daemon::Daemon(ServeConfig config, WorkloadCatalog catalog)
    : config_(std::move(config)), catalog_(std::move(catalog))
{
    config_.validate();
    energy_cache_ =
        std::make_shared<SharedEnergyCache>(config_.cache_capacity);
    if (!config_.store_path.empty())
        // One shared server-resident store: every client's completed
        // cells funnel through its single group-commit writer, and
        // resident cells answer without evaluation (a store of another
        // on-disk version fails startup with StoreVersionError).
        store_ = std::make_unique<store::SweepStore>(
            config_.store_path, store::SweepStore::Mode::append,
            "vqad");

    // Unix-domain listener (unlink any stale socket file first).
    unix_listen_fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
    if (unix_listen_fd_ < 0)
        throw std::runtime_error(std::string("vqad: socket(AF_UNIX): ") +
                                 std::strerror(errno));
    setCloexec(unix_listen_fd_);
    ::unlink(config_.socket_path.c_str());
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, config_.socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (bind(unix_listen_fd_, reinterpret_cast<sockaddr *>(&addr),
             sizeof(addr)) != 0 ||
        listen(unix_listen_fd_, 64) != 0) {
        const std::string what =
            "vqad: bind/listen on '" + config_.socket_path +
            "': " + std::strerror(errno);
        close(unix_listen_fd_);
        throw std::runtime_error(what);
    }

    // Optional loopback TCP listener.
    if (config_.tcp_port != 0) {
        tcp_listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
        if (tcp_listen_fd_ >= 0) {
            setCloexec(tcp_listen_fd_);
            const int one = 1;
            setsockopt(tcp_listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                       sizeof(one));
            sockaddr_in in_addr{};
            in_addr.sin_family = AF_INET;
            in_addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
            in_addr.sin_port = htons(config_.tcp_port);
            if (bind(tcp_listen_fd_,
                     reinterpret_cast<sockaddr *>(&in_addr),
                     sizeof(in_addr)) != 0 ||
                listen(tcp_listen_fd_, 64) != 0) {
                close(tcp_listen_fd_);
                tcp_listen_fd_ = -1;
            } else {
                sockaddr_in bound{};
                socklen_t len = sizeof(bound);
                if (getsockname(tcp_listen_fd_,
                                reinterpret_cast<sockaddr *>(&bound),
                                &len) == 0)
                    tcp_port_ = ntohs(bound.sin_port);
            }
        }
        if (tcp_listen_fd_ < 0) {
            close(unix_listen_fd_);
            ::unlink(config_.socket_path.c_str());
            throw std::runtime_error(
                "vqad: cannot listen on loopback TCP port " +
                std::to_string(config_.tcp_port));
        }
    }

    // Wake pipe: workers (and beginDrain/stop) nudge the poll loop.
    int pipe_fds[2] = {-1, -1};
    if (pipe(pipe_fds) != 0) {
        close(unix_listen_fd_);
        if (tcp_listen_fd_ >= 0)
            close(tcp_listen_fd_);
        ::unlink(config_.socket_path.c_str());
        throw std::runtime_error(std::string("vqad: pipe(): ") +
                                 std::strerror(errno));
    }
    wake_read_fd_ = pipe_fds[0];
    wake_write_fd_ = pipe_fds[1];
    setCloexec(wake_read_fd_);
    setCloexec(wake_write_fd_);
    fcntl(wake_read_fd_, F_SETFL, O_NONBLOCK);
    fcntl(wake_write_fd_, F_SETFL, O_NONBLOCK);

    pool_ = std::make_unique<WorkerPool>(config_.workers);
    serve_thread_ = std::thread([this] { serveLoop(); });
}

Daemon::~Daemon() { stop(); }

void
Daemon::beginDrain()
{
    draining_.store(true, std::memory_order_relaxed);
    if (wake_write_fd_ >= 0) {
        const char byte = 1;
        [[maybe_unused]] const ssize_t n =
            write(wake_write_fd_, &byte, 1);
    }
}

void
Daemon::waitDrained()
{
    std::unique_lock<std::mutex> lock(drain_mutex_);
    drain_cv_.wait(lock, [this] { return unsettled_jobs_ == 0; });
}

void
Daemon::stop()
{
    if (stopped_.exchange(true))
        return;
    stopping_.store(true, std::memory_order_relaxed);
    if (wake_write_fd_ >= 0) {
        const char byte = 1;
        [[maybe_unused]] const ssize_t n =
            write(wake_write_fd_, &byte, 1);
    }
    if (serve_thread_.joinable())
        serve_thread_.join();
    // The serve loop cancelled every in-flight token on its way out;
    // workers unwind at their next checkpoint and the pool joins them.
    pool_.reset();
    if (unix_listen_fd_ >= 0)
        close(unix_listen_fd_);
    if (tcp_listen_fd_ >= 0)
        close(tcp_listen_fd_);
    if (wake_read_fd_ >= 0)
        close(wake_read_fd_);
    if (wake_write_fd_ >= 0)
        close(wake_write_fd_);
    ::unlink(config_.socket_path.c_str());
    // Close the store cleanly: flushes the group-commit queue and
    // persists the index segment so the next daemon's open is fast.
    store_.reset();
    // Nobody will answer the jobs still in the completion queue; any
    // waiter connections are gone with the serve loop anyway.
    std::lock_guard<std::mutex> lock(completions_mutex_);
    completions_.clear();
}

DaemonStats
Daemon::stats() const
{
    DaemonStats s;
    s.connections_total = connections_total_.load();
    s.connections_open = connections_open_.load();
    s.requests_total = requests_total_.load();
    s.cells_queued = cells_queued_.load();
    s.cells_active = cells_active_.load();
    s.cells_completed = cells_completed_.load();
    s.cells_failed = cells_failed_.load();
    s.cells_coalesced = cells_coalesced_.load();
    s.cells_cancelled = cells_cancelled_.load();
    s.rejected_busy = rejected_busy_.load();
    s.rejected_quota = rejected_quota_.load();
    s.rejected_draining = rejected_draining_.load();
    s.energy_cache_hits = energy_cache_->hits();
    s.energy_cache_misses = energy_cache_->misses();
    s.store_hits = store_hits_.load();
    if (store_) {
        const store::StoreStats st = store_->stats();
        s.store_cells = st.cells;
        s.store_appends = static_cast<size_t>(st.appends);
        s.store_fsyncs = static_cast<size_t>(st.fsyncs);
        s.store_max_commit_batch =
            static_cast<size_t>(st.max_commit_batch);
        s.store_compactions = static_cast<size_t>(st.compactions);
        s.store_index_rebuilds =
            static_cast<size_t>(st.index_rebuilds);
        s.store_reader_opens = static_cast<size_t>(
            store::globalStoreCounters().reader_opens);
    }
    return s;
}

void
Daemon::serveLoop()
{
    while (!stopping_.load(std::memory_order_relaxed)) {
        std::vector<pollfd> fds;
        fds.push_back({wake_read_fd_, POLLIN, 0});
        const bool accepting = !draining_.load(std::memory_order_relaxed);
        if (accepting) {
            fds.push_back({unix_listen_fd_, POLLIN, 0});
            if (tcp_listen_fd_ >= 0)
                fds.push_back({tcp_listen_fd_, POLLIN, 0});
        }
        const size_t conn_base = fds.size();
        for (const Connection &conn : connections_)
            fds.push_back({conn.fd, POLLIN, 0});

        const int ready =
            poll(fds.data(), static_cast<nfds_t>(fds.size()), 200);
        if (ready < 0 && errno != EINTR)
            break;

        if (fds[0].revents & POLLIN) {
            char buf[256];
            while (read(wake_read_fd_, buf, sizeof(buf)) > 0) {
            }
        }
        drainCompletions();
        if (stopping_.load(std::memory_order_relaxed))
            break;

        if (accepting) {
            if (fds[1].revents & POLLIN)
                acceptOn(unix_listen_fd_);
            if (tcp_listen_fd_ >= 0 && conn_base > 2 &&
                (fds[2].revents & POLLIN))
                acceptOn(tcp_listen_fd_);
        }

        // Walk connections newest-poll-snapshot order; handlers may
        // close (erase) connections, so re-find each by fd.
        for (size_t i = conn_base; i < fds.size(); ++i) {
            if (fds[i].revents == 0)
                continue;
            const int fd = fds[i].fd;
            size_t index = connections_.size();
            for (size_t c = 0; c < connections_.size(); ++c)
                if (connections_[c].fd == fd) {
                    index = c;
                    break;
                }
            if (index == connections_.size())
                continue; // already closed this iteration
            if (fds[i].revents & (POLLIN | POLLHUP | POLLERR))
                handleConnectionInput(connections_[index]);
        }
    }

    // Shutdown path: cancel everything in flight so workers unwind at
    // their next checkpoint, then drop the connections.
    for (auto &[key, job] : inflight_)
        if (!job->token->cancelled())
            job->token->cancel();
    for (Connection &conn : connections_) {
        close(conn.fd);
        connections_open_.fetch_sub(1, std::memory_order_relaxed);
    }
    connections_.clear();
}

void
Daemon::acceptOn(int listen_fd)
{
    for (;;) {
        const int fd = accept(listen_fd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // EAGAIN or a transient error; poll again
        }
        setCloexec(fd);
        Connection conn;
        conn.fd = fd;
        conn.client_id = next_client_id_++;
        connections_.push_back(std::move(conn));
        connections_total_.fetch_add(1, std::memory_order_relaxed);
        connections_open_.fetch_add(1, std::memory_order_relaxed);
        // accept() may have queued several peers behind one POLLIN —
        // but a blocking listen fd would hang the loop on the next
        // iteration's accept, so take exactly one and let poll()
        // re-report readiness.
        return;
    }
}

void
Daemon::handleConnectionInput(Connection &conn)
{
    const uint64_t client_id = conn.client_id;
    bool alive = drainSocket(conn.fd, conn.frames);
    std::string payload;
    while (alive) {
        try {
            if (!conn.frames.next(payload))
                break;
        } catch (const std::exception &) {
            alive = false; // corrupt length prefix: the stream is gone
            break;
        }
        alive = handleFrame(conn, payload);
    }
    if (!alive) {
        for (size_t c = 0; c < connections_.size(); ++c)
            if (connections_[c].client_id == client_id) {
                closeConnection(c);
                break;
            }
    }
}

bool
Daemon::handleFrame(Connection &conn, const std::string &payload)
{
    std::string key;
    std::string label;
    SweepRow frame;
    if (!storefmt::parseCellPayload(payload, key, label, frame) ||
        !frame.has("type"))
        return sendErr(conn, 0, "bad_request", "invalid_argument",
                       "unparseable request frame");
    requests_total_.fetch_add(1, std::memory_order_relaxed);
    const std::string &type = frame.str("type");
    const long long id = frame.has("id") ? frame.integer("id") : 0;
    if (type == "ping")
        return sendFrame(conn, makePongFrame(id));
    if (type == "stats")
        return sendStats(conn, id);
    if (type == "run") {
        if (!frame.has("workload") || key.empty())
            return sendErr(conn, id, "bad_request", "invalid_argument",
                           "run request needs \"workload\" and \"key\"");
        return handleRun(
            conn, id, frame.str("workload"),
            frame.has("mode") ? frame.str("mode") : "default", key,
            frame.has("isolation") ? frame.str("isolation") : "");
    }
    return sendErr(conn, id, "bad_request", "invalid_argument",
                   "unknown request type '" + type + "'");
}

std::shared_ptr<Daemon::Expansion>
Daemon::expansionFor(const std::string &workload, const std::string &mode)
{
    const std::string memo_key = workload + "|" + mode;
    const auto it = expansions_.find(memo_key);
    if (it != expansions_.end())
        return it->second;
    auto exp = std::make_shared<Expansion>();
    exp->workload = catalog_.build(workload, mode); // validates
    exp->cells = exp->workload.spec.cells();
    for (size_t i = 0; i < exp->cells.size(); ++i)
        exp->by_key[exp->cells[i].keyString()] = i;
    expansions_[memo_key] = exp;
    return exp;
}

bool
Daemon::handleRun(Connection &conn, long long id,
                  const std::string &workload, const std::string &mode,
                  const std::string &key, const std::string &isolation)
{
    if (draining_.load(std::memory_order_relaxed)) {
        rejected_draining_.fetch_add(1, std::memory_order_relaxed);
        return sendErr(conn, id, "draining", "cancelled",
                       "daemon is draining; no new work admitted");
    }
    if (conn.outstanding >= config_.per_client_inflight) {
        rejected_quota_.fetch_add(1, std::memory_order_relaxed);
        return sendErr(
            conn, id, "quota", "resource",
            "client in-flight quota reached (" +
                std::to_string(config_.per_client_inflight) + ")");
    }
    if (!isolation.empty() && isolation != "process" &&
        isolation != "in_process")
        return sendErr(conn, id, "bad_request", "invalid_argument",
                       "unknown isolation '" + isolation + "'");
    if (!catalog_.has(workload))
        return sendErr(conn, id, "unknown_workload", "invalid_argument",
                       "unknown workload '" + workload + "'");
    std::shared_ptr<Expansion> exp;
    try {
        exp = expansionFor(workload, mode);
    } catch (const std::exception &e) {
        return sendErr(conn, id, "bad_request", "invalid_argument",
                       e.what());
    }
    const auto cell_it = exp->by_key.find(key);
    if (cell_it == exp->by_key.end())
        return sendErr(conn, id, "unknown_cell", "invalid_argument",
                       "workload '" + workload + "' (" + mode +
                           ") has no cell with key " + key);

    // Server-side resume: a healthy line already resident in the
    // shared store answers immediately — no queue slot, no
    // evaluation, byte-identical to the line the evaluating daemon
    // stored. Quarantine markers never short-circuit (the daemon
    // stores only healthy lines, but a merged-in marker must
    // re-execute, matching the local-sink retry path).
    if (store_ && store_->containsKey(key) && !store_->markerFor(key)) {
        store_hits_.fetch_add(1, std::memory_order_relaxed);
        return sendFrame(conn,
                         makeOkFrame(id, key, store_->lineFor(key)));
    }

    // Coalescing: attach to a live in-flight job for the same cell
    // key. A job whose token is already cancelled is dead weight —
    // its result (if any) is a CancelledError — so it never picks up
    // new waiters; a fresh job replaces it in the index.
    const auto job_it = inflight_.find(key);
    if (job_it != inflight_.end() && !job_it->second->token->cancelled()) {
        job_it->second->waiters.emplace_back(conn.client_id, id);
        ++conn.outstanding;
        cells_coalesced_.fetch_add(1, std::memory_order_relaxed);
        return true;
    }

    if (cells_queued_.load(std::memory_order_relaxed) >=
        config_.max_pending) {
        rejected_busy_.fetch_add(1, std::memory_order_relaxed);
        return sendErr(conn, id, "busy", "resource",
                       "pending queue full (" +
                           std::to_string(config_.max_pending) + ")");
    }

    auto job = std::make_shared<Job>();
    job->key = key;
    job->cell = &exp->cells[cell_it->second];
    job->fn = exp->workload.fn;
    job->token = std::make_shared<CancelToken>();
    job->process_isolation = (isolation == "process");
    job->waiters.emplace_back(conn.client_id, id);
    job->expansion_guard = exp;
    inflight_[key] = job;
    ++conn.outstanding;
    cells_queued_.fetch_add(1, std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(drain_mutex_);
        ++unsettled_jobs_;
    }
    pool_->enqueue([this, job] { executeJob(job); });
    return true;
}

void
Daemon::closeConnection(size_t index)
{
    const uint64_t client_id = connections_[index].client_id;
    close(connections_[index].fd);
    connections_.erase(connections_.begin() +
                       static_cast<std::ptrdiff_t>(index));
    connections_open_.fetch_sub(1, std::memory_order_relaxed);

    // The disconnect seam: drop this client's waiters everywhere; a
    // job nobody is waiting on gets its token cancelled and unwinds at
    // the next checkpoint. Jobs other clients still wait on keep
    // running untouched.
    for (auto &[key, job] : inflight_) {
        auto &waiters = job->waiters;
        waiters.erase(std::remove_if(waiters.begin(), waiters.end(),
                                     [client_id](const auto &w) {
                                         return w.first == client_id;
                                     }),
                      waiters.end());
        if (waiters.empty() && !job->token->cancelled()) {
            job->token->cancel();
            cells_cancelled_.fetch_add(1, std::memory_order_relaxed);
        }
    }
}

void
Daemon::executeJob(const std::shared_ptr<Job> &job)
{
    cells_queued_.fetch_sub(1, std::memory_order_relaxed);
    if (job->token->cancelled()) {
        // Every waiter disconnected while the job sat in the queue;
        // skip the evaluation entirely.
        job->ok = false;
        job->category = errorCategoryName(ErrorCategory::cancelled);
        job->error = "cancelled before execution (client disconnect)";
    } else {
        cells_active_.fetch_add(1, std::memory_order_relaxed);
        if (config_.cell_timeout_ms > 0.0)
            job->token->setDeadline(config_.cell_timeout_ms);
        try {
            job->line = job->process_isolation
                            ? runJobInWorkerProcess(*job)
                            : runJobInProcess(*job);
            job->ok = true;
            cells_completed_.fetch_add(1, std::memory_order_relaxed);
        } catch (...) {
            const ClassifiedError e = classifyCurrentException();
            job->ok = false;
            job->category = errorCategoryName(e.category);
            job->error = e.what;
            // A disconnect-cancel mid-run was already counted when the
            // token tripped; everything else is a real failure.
            if (!job->token->cancelled())
                cells_failed_.fetch_add(1, std::memory_order_relaxed);
        }
        cells_active_.fetch_sub(1, std::memory_order_relaxed);
    }
    {
        std::lock_guard<std::mutex> lock(completions_mutex_);
        completions_.push_back(job);
    }
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = write(wake_write_fd_, &byte, 1);
}

std::string
Daemon::runJobInProcess(const Job &job)
{
    // Fresh session per job, attached to the server-resident cache —
    // exactly the SweepRunner in-process recipe, so the row (and the
    // store line built from it) is byte-identical to a local run.
    ExperimentSession session(job.cell->experiment,
                              job.cell->experiment.cache_capacity > 0
                                  ? energy_cache_
                                  : nullptr);
    session.setCancelToken(job.token);
    CancelScope scope(job.token.get());
    const SweepRow row = job.fn(*job.cell, session);
    return storefmt::checksummedCellLine(storefmt::serializeCellPayload(
        job.key, job.cell->label, row));
}

std::string
Daemon::runJobInWorkerProcess(const Job &job)
{
    // Per-request process isolation: a one-shot single-task
    // ProcessPool. The forked child builds its own session (and its
    // own caches — purity keeps the bytes identical); the
    // client-disconnect token cannot reach across the fork, so
    // cancellation of isolated cells happens at dispatch, not mid-run.
    ProcessPool::Config config;
    config.workers = 1;
    std::vector<ProcTask> tasks;
    tasks.push_back({0, job.key, job.cell->label});
    const SweepCell *cell = job.cell;
    const SweepCellFn fn = job.fn;
    const double timeout_ms = config_.cell_timeout_ms;
    ProcessPool pool(std::move(config), std::move(tasks),
                     [cell, fn, timeout_ms](size_t) {
                         std::shared_ptr<CancelToken> token;
                         if (timeout_ms > 0.0) {
                             token = std::make_shared<CancelToken>();
                             token->setDeadline(timeout_ms);
                         }
                         ExperimentSession session(cell->experiment);
                         if (token)
                             session.setCancelToken(token);
                         const SweepRow row = fn(*cell, session);
                         return storefmt::checksummedCellLine(
                             storefmt::serializeCellPayload(
                                 cell->keyString(), cell->label, row));
                     });
    return pool.runTask(0);
}

void
Daemon::drainCompletions()
{
    for (;;) {
        std::shared_ptr<Job> job;
        {
            std::lock_guard<std::mutex> lock(completions_mutex_);
            if (completions_.empty())
                break;
            job = std::move(completions_.front());
            completions_.pop_front();
        }
        // Un-index first: a send failure below may close a connection,
        // and closeConnection must not see this finished job.
        const auto it = inflight_.find(job->key);
        if (it != inflight_.end() && it->second == job)
            inflight_.erase(it);

        // Persist before replying, so a client that saw "ok" can
        // count on the store holding the line. A store write failure
        // (disk full) must not take the daemon down — the reply still
        // carries the line; only server-side resume is lost.
        if (job->ok && store_ &&
            (!store_->containsKey(job->key) ||
             store_->markerFor(job->key))) {
            try {
                store_->appendLine(job->line);
            } catch (const std::exception &) {
            }
        }

        for (const auto &[client_id, id] : job->waiters) {
            size_t index = connections_.size();
            for (size_t c = 0; c < connections_.size(); ++c)
                if (connections_[c].client_id == client_id) {
                    index = c;
                    break;
                }
            if (index == connections_.size())
                continue; // waiter vanished between cancel and here
            Connection &conn = connections_[index];
            if (conn.outstanding > 0)
                --conn.outstanding;
            const bool sent =
                job->ok
                    ? writeFrame(conn.fd,
                                 makeOkFrame(id, job->key, job->line))
                    : writeFrame(
                          conn.fd,
                          makeErrFrame(id, "failed",
                                       job->category.c_str(),
                                       job->error));
            if (!sent)
                closeConnection(index);
        }
        noteSettled();
    }
}

void
Daemon::noteSettled()
{
    std::lock_guard<std::mutex> lock(drain_mutex_);
    if (unsettled_jobs_ > 0)
        --unsettled_jobs_;
    if (unsettled_jobs_ == 0)
        drain_cv_.notify_all();
}

bool
Daemon::sendFrame(Connection &conn, const std::string &payload)
{
    // A false return means the peer is gone; the caller unwinds to
    // handleConnectionInput, which closes the connection. Closing here
    // would invalidate the Connection reference mid-handler.
    return writeFrame(conn.fd, payload);
}

bool
Daemon::sendErr(Connection &conn, long long id, const char *code,
                const char *category, const std::string &error)
{
    return sendFrame(conn, makeErrFrame(id, code, category, error));
}

bool
Daemon::sendStats(Connection &conn, long long id)
{
    const DaemonStats s = stats();
    std::ostringstream oss;
    JsonWriter json(oss);
    json.beginInlineObject();
    json.field("type", "stats");
    json.field("id", id);
    json.field("connections_total", s.connections_total);
    json.field("connections_open", s.connections_open);
    json.field("requests_total", s.requests_total);
    json.field("cells_queued", s.cells_queued);
    json.field("cells_active", s.cells_active);
    json.field("cells_completed", s.cells_completed);
    json.field("cells_failed", s.cells_failed);
    json.field("cells_coalesced", s.cells_coalesced);
    json.field("cells_cancelled", s.cells_cancelled);
    json.field("rejected_busy", s.rejected_busy);
    json.field("rejected_quota", s.rejected_quota);
    json.field("rejected_draining", s.rejected_draining);
    json.field("energy_cache_hits", s.energy_cache_hits);
    json.field("energy_cache_misses", s.energy_cache_misses);
    json.field("store_cells", s.store_cells);
    json.field("store_hits", s.store_hits);
    json.field("store_appends", s.store_appends);
    json.field("store_fsyncs", s.store_fsyncs);
    json.field("store_max_commit_batch", s.store_max_commit_batch);
    json.field("store_compactions", s.store_compactions);
    json.field("store_index_rebuilds", s.store_index_rebuilds);
    json.field("store_reader_opens", s.store_reader_opens);
    json.endInlineObject();
    return sendFrame(conn, oss.str());
}

} // namespace serve
} // namespace eftvqa
