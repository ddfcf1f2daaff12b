/**
 * @file
 * serve_mixed: an in-process serve::Daemon with an on-disk store,
 * serving a workload the benchmark registers: small Clifford cells of a
 * few ms each. The traffic follows the repository's own daemon client,
 * runSweepViaDaemon (the figure sweeps' --daemon and `vqac run`): each
 * client sweeps a grid of the workload's cells in expansion order, asks
 * for each cell once, and keeps a fixed number of requests in flight
 * (DaemonRunOptions' default, inside per_client_inflight and
 * max_pending, so admission never rejects). Several such sweeps run at
 * once over overlapping grids, as in CI's daemon-smoke job, where two
 * identical fig12 sweeps share one daemon: a cell another client is
 * evaluating right now is coalesced, one it has already finished is a
 * store hit, and the rest are evaluated and appended. The cells are
 * cheap, so the daemon's own work — framing, admission, coalescing, a
 * session per job and the fsync'd store append on the serve thread — is
 * a large share of each request. Evaluations equal the distinct keys
 * whatever the race between clients, so the work is fixed.
 */

#include <algorithm>
#include <filesystem>
#include <map>
#include <thread>

#include "ansatz/ansatz.hpp"
#include "bench.hpp"
#include "layers.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "store/sweep_store.hpp"
#include "vqa/storefmt.hpp"

namespace eftbench {

using namespace eftvqa;

namespace {

const char *const kWorkload = "perfbench_serve";

struct Sizes
{
    size_t window = 300; ///< cells in each client's sweep
    int qubits = 10;
    size_t population = 6;
    size_t generations = 3;
    size_t ga_trajectories = 16;
    size_t eval_trajectories = 64;
};

Sizes
sizesFor(const Run &run)
{
    Sizes s;
    if (run.tiny) {
        s.window = 12;
        s.population = 4;
        s.generations = 1;
    }
    return s;
}

/** First cell of client @p c's sweep: clients 0 and 1 run the same
 *  grid side by side (daemon-smoke's two identical sweeps); each later
 *  client's grid starts half a window further on, so it overlaps the
 *  second half of the grid before it. */
size_t
windowStart(size_t c, size_t window)
{
    return c == 0 ? 0 : (c - 1) * (window / 2);
}

/** Distinct cells the clients' sweeps cover. */
size_t
coveredCells(size_t clients, size_t window)
{
    return windowStart(clients - 1, window) + window;
}

/** What the registered cell function saw of each evaluation. */
struct ServiceLog
{
    std::mutex mutex;
    std::map<std::string, double> service_ms;      ///< by key
    std::map<std::string, Clock::time_point> done; ///< by key
    std::vector<double> ga_ms, energy_ms, ga_evals;
    std::vector<uint64_t> energy_circuits; ///< contentHash per energy
    size_t energies = 0;
};

serve::Workload
makeWorkload(const Run &run, const Pinned &p, const Sizes &z, ServiceLog *log)
{
    serve::Workload wl;
    SweepSpec &s = wl.spec;
    s.name = kWorkload;
    // Two families; enough couplings for every client's sweep and the
    // set-up request's cell, which no sweep asks for.
    const size_t couplings =
        coveredCells(p.clients, z.window) / 2 + 1;
    s.families = {HamFamily::Ising, HamFamily::Heisenberg};
    s.sizes = {z.qubits};
    for (size_t k = 0; k < couplings; ++k)
        s.couplings.push_back(0.1 + 0.01 * static_cast<double>(k));
    s.max_cells = 2 * couplings;
    s.ansatz = [](int n) { return fcheAnsatz(n, 1); };
    s.genetic.population = z.population;
    s.genetic.generations = z.generations;
    s.genetic.elite = 2;
    s.regimes = {
        RegimeSpec::nisqTableau(z.ga_trajectories, mix(run.seed, 5)),
        RegimeSpec::nisqTableau(z.eval_trajectories, mix(run.seed, 6))
            .named("nisq-eval")};
    s.executor_threads = p.executor_threads;
    const uint64_t seed = run.seed;
    s.customize = [seed](const SweepPoint &pt, ExperimentSpec &spec) {
        spec.genetic.seed = mix(seed, 5000 + pt.index);
    };
    wl.fn = [log](const SweepCell &cell, ExperimentSession &session) {
        const auto t0 = Clock::now();
        Span span("serve.service", cell.point.index + 1, -1);
        const auto &spec = session.spec();
        CliffordVqeResult ga;
        {
            Span ga_span("vqa.ga");
            ga = session.cliffordVqe(spec.regime("nisq"));
        }
        const double ga_ms = msSince(t0);
        const auto e0 = Clock::now();
        const Circuit bound = spec.ansatz.bind(cliffordAngles(ga.angles));
        double eval = 0.0;
        {
            Span energy_span("vqa.energy");
            eval = session.energy(spec.regime("nisq-eval"), bound);
        }
        const double energy_ms = msSince(e0);
        SweepRow row;
        row.set("family", hamFamilyName(cell.point.family));
        row.set("j", cell.point.coupling);
        row.set("e_ga", ga.energy);
        row.set("e_ideal", ga.ideal_energy);
        row.set("e_eval", eval);
        row.set("evals", ga.evaluations + 1);
        if (log) {
            std::lock_guard<std::mutex> lock(log->mutex);
            const std::string key = cell.keyString();
            log->service_ms[key] = msSince(t0);
            log->done[key] = Clock::now();
            log->energies += ga.evaluations + 1;
            log->ga_ms.push_back(ga_ms);
            log->energy_ms.push_back(energy_ms);
            log->ga_evals.push_back(static_cast<double>(ga.evaluations));
            log->energy_circuits.push_back(bound.contentHash());
        }
        return row;
    };
    return wl;
}

/** Each client's requests, as indices into the expanded cells. */
struct Streams
{
    std::vector<std::vector<size_t>> per_client;
    size_t warmup = 0;      ///< the cell the set-up request evaluates
    size_t distinct = 0;    ///< distinct cells the streams request
};

Streams
makeStreams(const Sizes &z, size_t n_cells, size_t clients)
{
    Streams out;
    out.per_client.resize(clients);
    for (size_t c = 0; c < clients; ++c)
        for (size_t i = 0; i < z.window; ++i)
            out.per_client[c].push_back(windowStart(c, z.window) + i);
    out.distinct = coveredCells(clients, z.window);
    out.warmup = n_cells - 1;
    return out;
}

double
field(const serve::DaemonReply &r, const char *name)
{
    return r.fields.has(name) ? r.fields.num(name) : 0.0;
}

/** One round's raw results. */
struct RoundResult
{
    double setup_s = 0.0;
    double wall_s = 0.0;
    size_t ok = 0;
    size_t energies = 0;
    std::vector<double> latency_ms;
    std::map<std::string, std::string> lines; ///< the store, by key
};

/**
 * One round: a fresh daemon and store, the clients' streams, the
 * stats deltas and the reply checks. Layer samples go to @p samples
 * when the round is traced.
 */
RoundResult
serveRound(Run &run, const Pinned &p, const Sizes &z, const Streams &streams,
           const std::vector<SweepCell> &cells, size_t r, bool traced,
           Samples &samples)
{
    RoundResult out;
    ServiceLog log;
    serve::WorkloadCatalog catalog;
    const Run *run_ptr = &run;
    catalog.registerWorkload(
        kWorkload, [run_ptr, p, z, &log](const std::string &) {
            return makeWorkload(*run_ptr, p, z, &log);
        });
    serve::ServeConfig config;
    config.socket_path = run.dir + "/vqad-" + std::to_string(r) + ".sock";
    config.store_path = run.dir + "/serve-" + std::to_string(r) + ".store";
    config.workers = p.daemon_workers;
    config.per_client_inflight = 8;
    config.max_pending = 64;

    // Set-up: daemon start (store creation, socket bind, serve thread),
    // the client connections, and one request that makes the daemon
    // expand the workload.
    const auto t0 = Clock::now();
    auto daemon = std::make_unique<serve::Daemon>(config, std::move(catalog));
    std::vector<serve::DaemonClient> clients;
    for (size_t c = 0; c < p.clients; ++c)
        clients.push_back(serve::DaemonClient::connectUnix(config.socket_path));
    serve::DaemonReply reply;
    clients[0].sendRun(0, kWorkload, "default",
                       cells[streams.warmup].keyString());
    const bool warm_ok = clients[0].readReply(reply) && reply.type == "ok";
    out.setup_s = msSince(t0) / 1000.0;
    run.check(warm_ok, "serve_mixed: set-up request answered ok");
    const serve::DaemonReply before = clients[0].stats();
    size_t setup_energies = 0;
    {
        std::lock_guard<std::mutex> lock(log.mutex);
        setup_energies = log.energies;
    }

    // Timed phase: every client sweeps its grid in order, one request
    // per cell, with `inflight` requests outstanding, as
    // runSweepViaDaemon does.
    const size_t n_clients = p.clients;
    std::vector<std::vector<Clock::time_point>> sent(n_clients);
    std::vector<std::vector<double>> latency(n_clients);
    std::vector<size_t> ok(n_clients, 0);
    std::vector<std::vector<std::string>> errors(n_clients);
    const auto t1 = Clock::now();
    std::vector<std::thread> threads;
    for (size_t c = 0; c < n_clients; ++c)
        threads.emplace_back([&, c] {
            const auto &stream = streams.per_client[c];
            auto &client = clients[c];
            sent[c].resize(stream.size());
            latency[c].assign(stream.size(), -1.0);
            size_t next = 0, received = 0;
            const auto send = [&] {
                sent[c][next] = Clock::now();
                if (!client.sendRun(static_cast<long long>(next + 1), kWorkload,
                                    "default",
                                    cells[stream[next]].keyString()))
                    errors[c].push_back("daemon hung up");
                ++next;
            };
            try {
                while (next < std::min(p.inflight_per_client, stream.size()))
                    send();
                serve::DaemonReply rep;
                while (received < stream.size() && client.readReply(rep)) {
                    const size_t i = static_cast<size_t>(rep.id - 1);
                    ++received;
                    if (i >= stream.size()) {
                        errors[c].push_back("reply with unknown id");
                        continue;
                    }
                    latency[c][i] = msSince(sent[c][i]);
                    const std::string want = cells[stream[i]].keyString();
                    std::string key, label;
                    SweepRow row;
                    if (rep.type != "ok")
                        errors[c].push_back("request rejected: " + rep.code +
                                            " " + rep.error);
                    else if (rep.key != want ||
                             !storefmt::parseChecksummedLine(rep.payload, key,
                                                             label, row) ||
                             key != want)
                        errors[c].push_back("reply crc or key mismatch for " +
                                            want);
                    else
                        ++ok[c];
                    if (next < stream.size())
                        send();
                }
                if (received < stream.size())
                    errors[c].push_back("daemon closed the connection");
            } catch (const std::exception &e) {
                errors[c].push_back(e.what());
            }
        });
    for (auto &t : threads)
        t.join();
    out.wall_s = msSince(t1) / 1000.0;

    const serve::DaemonReply after = clients[0].stats();
    const auto delta = [&](const char *name) {
        return field(after, name) - field(before, name);
    };
    clients.clear();
    daemon->beginDrain();
    daemon->waitDrained();
    daemon->stop();
    daemon.reset();

    size_t requests = 0;
    for (size_t c = 0; c < n_clients; ++c) {
        requests += streams.per_client[c].size();
        out.ok += ok[c];
        for (const std::string &e : errors[c])
            run.check(false, "serve_mixed: " + e);
        for (const double l : latency[c])
            if (l >= 0.0)
                out.latency_ms.push_back(l);
    }
    run.ok(out.ok);
    out.energies = log.energies - setup_energies;
    const double rejected = delta("rejected_busy") + delta("rejected_quota") +
                            delta("rejected_draining");
    run.check(rejected == 0.0, "serve_mixed: no request rejected");

    store::SweepStore stored(config.store_path,
                             store::SweepStore::Mode::read_only);
    run.check(stored.cellCount() == streams.distinct + 1,
              "serve_mixed: store holds exactly the distinct keys");
    for (const auto &cell : stored.cells())
        out.lines[cell.key] = cell.line;
    if (r != 0)
        std::filesystem::remove(config.store_path);

    if (!traced)
        return out;
    // Sample names are shared with the batch workloads' vqa layer.
    for (const auto &[key, ms] : log.service_ms) {
        samples.add("serve.service_ms", ms);
        samples.add("vqa.cell_ms", ms);
    }
    for (const double ms : log.ga_ms)
        samples.add("vqa.ga_ms", ms);
    for (const double ms : log.energy_ms)
        samples.add("vqa.energy_ms", ms);
    for (const double n : log.ga_evals)
        samples.add("vqa.evals_per_request", n);
    addDistinctFraction(samples, log.energy_circuits);
    // A request sent after its key's evaluation finished was a store
    // hit; every other request waited on an evaluation.
    for (size_t c = 0; c < n_clients; ++c)
        for (size_t i = 0; i < latency[c].size(); ++i) {
            if (latency[c][i] < 0.0)
                continue;
            const std::string key =
                cells[streams.per_client[c][i]].keyString();
            samples.add("serve.request_ms", latency[c][i]);
            const auto done = log.done.find(key);
            if (done != log.done.end() && sent[c][i] > done->second)
                samples.add("serve.hit_ms", latency[c][i]);
            else if (done != log.done.end())
                samples.add("serve.wait_ms",
                            latency[c][i] - log.service_ms[key]);
        }
    const double req = static_cast<double>(requests);
    samples.add("serve.store_hit_frac", delta("store_hits") / req);
    samples.add("serve.coalesced_frac", delta("cells_coalesced") / req);
    samples.add("serve.evaluated_frac", delta("cells_completed") / req);
    samples.add("serve.rejected", rejected);
    const double hits = delta("energy_cache_hits");
    const double lookups = hits + delta("energy_cache_misses");
    samples.add("serve.cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0);
    samples.add("vqa.cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0);
    samples.add("vqa.cache_lookups", lookups);
    const double appends = delta("store_appends");
    samples.add("store.fsyncs_per_append",
                appends > 0 ? delta("store_fsyncs") / appends : 0.0);
    samples.add("store.max_commit_batch", field(after, "store_max_commit_batch"));
    return out;
}

struct Inputs
{
    Sizes sizes;
    std::vector<SweepCell> cells;
    Streams streams;
};

Inputs
makeInputs(Run &run, const Pinned &p, Samples &samples)
{
    Inputs in;
    in.sizes = sizesFor(run);
    const serve::Workload wl = makeWorkload(run, p, in.sizes, nullptr);
    const auto t0 = Clock::now();
    in.cells = wl.spec.cells();
    samples.add("vqa.sweep_expand_ms", msSince(t0));
    in.streams = makeStreams(in.sizes, in.cells.size(), p.clients);
    // The daemon builds a session for every job it runs; a traced run
    // times building one, with every regime's engine, on a sample of
    // the cells.
    for (size_t i = 0; run.trace && i < std::min<size_t>(64, in.cells.size());
         ++i) {
        const auto s0 = Clock::now();
        ExperimentSession session(in.cells[i].experiment);
        for (const RegimeSpec &regime : in.cells[i].experiment.regimes)
            session.engine(regime);
        samples.add("vqa.session_ms", msSince(s0));
    }
    return in;
}

} // namespace

void
runServeMixed(Run &run)
{
    Samples scratch;
    const Inputs in =
        makeInputs(run, run.pinned, run.trace ? run.samples : scratch);

    std::vector<double> setup_s, wall_s;
    std::vector<double> p50, p99;
    size_t ok = 0, energies = 0, requests = 0;
    std::map<std::string, std::string> first_lines;
    for (const auto &s : in.streams.per_client)
        requests += s.size();

    runRounds(run, 3, [&](size_t r, bool traced) {
        RoundResult res = serveRound(run, run.pinned, in.sizes, in.streams,
                                     in.cells, r, traced, run.samples);
        setup_s.push_back(res.setup_s);
        wall_s.push_back(res.wall_s);
        run.walls.emplace_back(traced, res.wall_s);
        p50.push_back(quantile(res.latency_ms, 0.5));
        p99.push_back(quantile(res.latency_ms, 0.99));
        ok = res.ok;
        energies = res.energies;
        if (r == 0) {
            first_lines = std::move(res.lines);
        } else {
            run.check(res.lines == first_lines,
                      "serve_mixed: store lines identical to round 0");
        }
    });

    // Every distinct key's line is byte-identical to a local evaluation
    // of the same cell in a fresh session.
    const serve::Workload local =
        makeWorkload(run, run.pinned, in.sizes, nullptr);
    std::vector<const SweepCell *> todo;
    for (const SweepCell &cell : in.cells)
        if (first_lines.count(cell.keyString()))
            todo.push_back(&cell);
    std::vector<char> same(todo.size(), 0);
    parallelFor(todo.size(), run.pinned.daemon_workers, [&](size_t i) {
        const SweepCell &cell = *todo[i];
        ExperimentSession session(cell.experiment);
        const std::string key = cell.keyString();
        same[i] = storefmt::checksummedCellLine(storefmt::serializeCellPayload(
                      key, cell.label, local.fn(cell, session))) ==
                  first_lines.at(key);
    });
    run.check(todo.size() == in.streams.distinct + 1,
              "serve_mixed: every requested key is stored");
    for (size_t i = 0; i < todo.size(); ++i)
        run.check(same[i], "serve_mixed: stored line for " + todo[i]->label +
                               " matches a local evaluation");

    const double wall = median(wall_s);
    run.metric("setup_s", median(setup_s), "s", setup_s.size());
    run.metric("wall_s", wall, "s", wall_s.size());
    run.metric("evals_per_s", static_cast<double>(energies) / wall, "1/s",
               wall_s.size());
    run.metric("requests_per_s", static_cast<double>(ok) / wall, "1/s",
               wall_s.size());
    run.note("request_ms_p50", median(p50), "ms", requests);
    run.note("request_ms_p99", median(p99), "ms", requests);
    run.note("rounds", static_cast<double>(wall_s.size()), "count");
    run.note("requests_per_round", static_cast<double>(requests), "count");
    run.note("distinct_keys", static_cast<double>(in.streams.distinct + 1),
             "count");

    if (run.trace)
        storeLayer(run, run.dir + "/serve-0.store");
}

void
serveLayerProbe(Run &run, Samples &samples)
{
    const Pinned p =
        pinnedFor("serve_mixed", std::thread::hardware_concurrency());
    const Inputs in = makeInputs(run, p, samples);
    serveRound(run, p, in.sizes, in.streams, in.cells, 1, true, samples);
}

} // namespace eftbench
