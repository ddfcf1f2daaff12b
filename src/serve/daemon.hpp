/**
 * @file
 * vqad — the long-lived experiment service daemon.
 *
 * A Daemon listens on a Unix-domain socket (and optionally a loopback
 * TCP port) for length-prefixed JSON frames (common/frame.hpp; the
 * same wire shape as the ProcessPool supervisor channel) and serves
 * sweep cells from a WorkloadCatalog. The pieces:
 *
 *  - One serve thread owns every socket: a poll() loop accepts
 *    connections, feeds each connection's bytes through a FrameBuffer,
 *    dispatches complete request frames, and writes every reply. All
 *    connection and job bookkeeping is serve-thread-only state — no
 *    locks around it; worker threads communicate completions back
 *    through a mutex-guarded queue plus a wake pipe.
 *
 *  - Validation before work (the zfs_ioctl discipline): a run request
 *    must name a registered workload, a valid mode and a cell key the
 *    expanded (and SweepSpec::validate()d) grid contains, or it is
 *    answered with a structured "err" frame — never silently dropped,
 *    never admitted half-checked.
 *
 *  - Admission control: a draining daemon rejects new work
 *    (code "draining"); a client over its in-flight quota is rejected
 *    (code "quota"); a full pending queue is rejected (code "busy").
 *
 *  - Request coalescing by SweepCell::key() (the nfs4_srv
 *    duplicate-request-cache idiom): concurrent requests for the same
 *    cell share one evaluation — the second request attaches as a
 *    waiter on the in-flight job and both clients receive the
 *    identical checksummed store line.
 *
 *  - A server-resident cache: one SharedEnergyCache outlives every
 *    request; each job's fresh ExperimentSession attaches it when the
 *    cell caches, so energies evaluated for one client warm every
 *    later request. The cache is pure (hits equal what re-evaluation
 *    would produce), which is what keeps the determinism contract: a
 *    cell's result bytes from the daemon are byte-identical to a local
 *    in-process run of the same spec.
 *
 *  - CancelToken as the client-disconnect seam: every job carries a
 *    token; when the last waiter's connection drops, the token is
 *    cancelled and the evaluation stops at the next checkpoint
 *    (engine entry points, each compiled statevector run, each
 *    density-matrix pass, and the tableau trajectory loops). Other
 *    clients' jobs are untouched.
 *
 *  - kstat-style counters: always-on relaxed atomics (connections,
 *    queued/active/coalesced/cancelled cells, rejections, cache
 *    hits/misses), snapshotted by the "stats" request and the stats()
 *    accessor.
 *
 * Wire protocol (flat one-line JSON objects, parsed with
 * storefmt::parseCellPayload — "key" is routed out, everything else
 * lands in a SweepRow):
 *
 *   request  {"type":"run","id":N,"workload":"...","mode":"smoke",
 *             "key":"0x..."[,"isolation":"process"]}
 *            {"type":"stats","id":N}   {"type":"ping","id":N}
 *   reply    {"type":"ok","id":N,"key":"0x...","payload":"<line>"}
 *            {"type":"err","id":N,"code":"busy|quota|draining|
 *             unknown_workload|unknown_cell|bad_request|failed",
 *             "category":"...","error":"..."}
 *            {"type":"stats","id":N,<counter fields>}
 *            {"type":"pong","id":N}
 *
 * where <line> is the checksummed store line
 * (storefmt::checksummedCellLine) — exactly the bytes a local
 * sweep store would hold for the cell.
 */

#ifndef EFTVQA_SERVE_DAEMON_HPP
#define EFTVQA_SERVE_DAEMON_HPP

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/frame.hpp"
#include "serve/workloads.hpp"
#include "store/sweep_store.hpp"
#include "vqa/estimation.hpp"
#include "vqa/executor.hpp"
#include "vqa/fault.hpp"

namespace eftvqa {
namespace serve {

/**
 * Most requests ServeConfig::max_pending and per_client_inflight may
 * admit. Neither count allocates or starts anything up front, so the
 * limit only turns a count mistyped by a few digits into a validation
 * error; the defaults sit three orders of magnitude below it.
 */
inline constexpr size_t kMaxAdmitted = 65536;

/** How a Daemon listens and admits work. */
struct ServeConfig
{
    /** Unix-domain socket path (required; an existing socket file at
     *  the path is unlinked first). */
    std::string socket_path;

    /** Loopback TCP port; 0 = Unix socket only. */
    uint16_t tcp_port = 0;

    /** Evaluation worker threads; 0 = a small hardware default, at
     *  most kMaxWorkers. */
    size_t workers = 0;

    /** Jobs admitted but not yet executing before new work is
     *  rejected with code "busy"; at most kMaxAdmitted. */
    size_t max_pending = 64;

    /** Outstanding requests one connection may have before new ones
     *  are rejected with code "quota"; at most kMaxAdmitted. */
    size_t per_client_inflight = 8;

    /** Server-resident SharedEnergyCache capacity (entries). */
    size_t cache_capacity = 65536;

    /** Per-cell soft deadline in ms (0 = none), enforced via each
     *  job's CancelToken like SweepSpec::cell_timeout_ms. */
    double cell_timeout_ms = 0.0;

    /** Server-resident append-only SweepStore path ("" = off). Every
     *  completed cell appends through the store's group-commit
     *  writer, and a request whose key the store already holds a
     *  healthy line for is answered from the store without
     *  evaluating — server-side resume across daemon restarts and
     *  across every client. */
    std::string store_path;

    /** Throws std::invalid_argument naming the offending field. */
    void validate() const;
};

/** Snapshot of the daemon's kstat-style counters. */
struct DaemonStats
{
    size_t connections_total = 0;
    size_t connections_open = 0;
    size_t requests_total = 0;
    size_t cells_queued = 0;    ///< admitted, not yet executing
    size_t cells_active = 0;    ///< executing right now
    size_t cells_completed = 0; ///< finished ok
    size_t cells_failed = 0;    ///< finished with an error
    size_t cells_coalesced = 0; ///< requests attached to in-flight jobs
    size_t cells_cancelled = 0; ///< jobs cancelled by client disconnect
    size_t rejected_busy = 0;
    size_t rejected_quota = 0;
    size_t rejected_draining = 0;
    size_t energy_cache_hits = 0;
    size_t energy_cache_misses = 0;
    // Server-resident SweepStore counters (all 0 when no --store).
    size_t store_cells = 0;      ///< distinct keys resident
    size_t store_hits = 0;       ///< requests answered from the store
    size_t store_appends = 0;
    size_t store_fsyncs = 0;
    size_t store_max_commit_batch = 0; ///< largest group-commit batch
    size_t store_compactions = 0;
    size_t store_index_rebuilds = 0;
    size_t store_reader_opens = 0; ///< process-wide read-only opens
};

/**
 * The daemon. Construction binds the sockets and starts the serve
 * thread; destruction (or stop()) closes everything. Graceful
 * shutdown is beginDrain() — stop accepting and admitting — followed
 * by waitDrained() — block until every admitted job has been answered
 * — then stop(); vqad runs that sequence on SIGTERM.
 */
class Daemon
{
  public:
    Daemon(ServeConfig config, WorkloadCatalog catalog);
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Bound TCP port (useful with an ephemeral tcp_port request);
     *  0 when TCP is off. */
    uint16_t tcpPort() const { return tcp_port_; }

    /** Stop accepting connections and admitting new work; in-flight
     *  jobs keep running. Idempotent. */
    void beginDrain();

    /** Block until no admitted job is outstanding (call after
     *  beginDrain(), or this may wait on a moving target). */
    void waitDrained();

    /** Shut the serve thread and worker pool down; open connections
     *  are closed. Idempotent; the destructor calls it. */
    void stop();

    /** Counter snapshot (also served over the wire as "stats"). */
    DaemonStats stats() const;

  private:
    struct Connection
    {
        int fd = -1;
        uint64_t client_id = 0;
        size_t outstanding = 0; ///< admitted or attached, unanswered
        FrameBuffer frames;
    };

    /** One admitted evaluation, shared by every coalesced waiter. */
    struct Job
    {
        std::string key;             ///< SweepCell::keyString()
        const SweepCell *cell = nullptr;
        SweepCellFn fn;
        std::shared_ptr<CancelToken> token;
        bool process_isolation = false;
        /** (client_id, request id) of every waiter, serve-thread
         *  state; replies go to whichever of these connections are
         *  still open at completion. */
        std::vector<std::pair<uint64_t, long long>> waiters;
        // Worker -> serve thread results.
        bool ok = false;
        std::string line;     ///< checksummed store line when ok
        std::string category; ///< error taxonomy name otherwise
        std::string error;
        /** Keeps the expansion (and with it *cell) alive. */
        std::shared_ptr<const void> expansion_guard;
    };

    struct Expansion
    {
        Workload workload;
        std::vector<SweepCell> cells;
        std::map<std::string, size_t> by_key;
    };

    void serveLoop();
    void acceptOn(int listen_fd);
    void handleConnectionInput(Connection &conn);
    bool handleFrame(Connection &conn, const std::string &payload);
    bool handleRun(Connection &conn, long long id,
                   const std::string &workload, const std::string &mode,
                   const std::string &key,
                   const std::string &isolation);
    void closeConnection(size_t index);
    void drainCompletions();
    void executeJob(const std::shared_ptr<Job> &job);
    std::string runJobInProcess(const Job &job);
    std::string runJobInWorkerProcess(const Job &job);
    bool sendFrame(Connection &conn, const std::string &payload);
    bool sendErr(Connection &conn, long long id, const char *code,
                 const char *category, const std::string &error);
    bool sendStats(Connection &conn, long long id);
    std::shared_ptr<Expansion> expansionFor(const std::string &workload,
                                            const std::string &mode);
    void noteSettled();

    ServeConfig config_;
    WorkloadCatalog catalog_;
    uint16_t tcp_port_ = 0;

    std::shared_ptr<SharedEnergyCache> energy_cache_;
    /** The shared server-resident store (null when store_path is
     *  empty). Lookups/appends happen on the serve thread only. */
    std::unique_ptr<store::SweepStore> store_;

    int unix_listen_fd_ = -1;
    int tcp_listen_fd_ = -1;
    int wake_read_fd_ = -1;
    int wake_write_fd_ = -1;

    std::thread serve_thread_;
    std::unique_ptr<WorkerPool> pool_;

    // Serve-thread-only state.
    std::vector<Connection> connections_;
    uint64_t next_client_id_ = 1;
    std::map<std::string, std::shared_ptr<Job>> inflight_; ///< by key
    std::map<std::string, std::shared_ptr<Expansion>> expansions_;

    // Worker -> serve thread completion queue.
    std::mutex completions_mutex_;
    std::deque<std::shared_ptr<Job>> completions_;

    std::atomic<bool> draining_{false};
    std::atomic<bool> stopping_{false};
    std::atomic<bool> stopped_{false};

    // Drained predicate: admitted jobs not yet answered.
    mutable std::mutex drain_mutex_;
    std::condition_variable drain_cv_;
    size_t unsettled_jobs_ = 0; ///< guarded by drain_mutex_

    // kstat-style counters (relaxed atomics; cheap enough to be
    // always on).
    std::atomic<size_t> connections_total_{0};
    std::atomic<size_t> connections_open_{0};
    std::atomic<size_t> requests_total_{0};
    std::atomic<size_t> cells_queued_{0};
    std::atomic<size_t> cells_active_{0};
    std::atomic<size_t> cells_completed_{0};
    std::atomic<size_t> cells_failed_{0};
    std::atomic<size_t> cells_coalesced_{0};
    std::atomic<size_t> cells_cancelled_{0};
    std::atomic<size_t> rejected_busy_{0};
    std::atomic<size_t> rejected_quota_{0};
    std::atomic<size_t> rejected_draining_{0};
    std::atomic<size_t> store_hits_{0};
};

} // namespace serve
} // namespace eftvqa

#endif // EFTVQA_SERVE_DAEMON_HPP
