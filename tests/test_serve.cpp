/**
 * @file
 * The experiment service daemon (src/serve/): the LruCache over its
 * two instances (the server-resident energy cache and the sweep-plan
 * memo), wire-level request validation, the stats frame's field names,
 * request coalescing pinned to exactly one evaluation, the determinism
 * contract (daemon result bytes == local in-process bytes), admission
 * control (quota / busy / draining) and its limits, the
 * client-disconnect cancellation seam, graceful drain — and the tableau
 * trajectory loops honoring CancelToken mid-evaluation.
 *
 * Daemon tests run against a synthetic workload catalog (tiny cells,
 * a latch-blockable cell function) so coalescing and cancellation
 * windows are deterministic, not timing hopes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "ansatz/ansatz.hpp"
#include "ham/ising.hpp"
#include "noise/noise_model.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/workloads.hpp"
#include "sim/lane_sweep.hpp"
#include "store/sink.hpp"
#include "vqa/fault.hpp"
#include "vqa/storefmt.hpp"
#include "vqa/sweep.hpp"

using namespace eftvqa;
using namespace std::chrono_literals;

namespace {

// Latch state for the synthetic blockable cell function. Globals
// because WorkloadFactory copies reach the daemon; each test resets
// them before constructing its Daemon.
std::atomic<int> g_evals{0};
std::atomic<bool> g_release{true};

void
resetSynthState(bool released)
{
    g_evals.store(0);
    g_release.store(released);
}

/** Tiny three-cell grid (qubits 4, 6, 8). The qubits==4 cell blocks
 *  on g_release, polling cancelCheckpoint() — the deterministic
 *  window for coalescing / quota / busy / cancel tests. */
serve::Workload
synthWorkload(const std::string &mode)
{
    // Same mode discipline as the real builders, so the daemon's
    // bad-mode rejection path is exercised.
    if (!serve::validWorkloadMode(mode))
        throw std::invalid_argument("synth: unknown mode '" + mode +
                                    "'");
    serve::Workload wl;
    wl.spec.name = "synth";
    wl.spec.families = {HamFamily::Ising};
    wl.spec.sizes = {4, 6, 8};
    wl.spec.couplings = {1.0};
    wl.spec.ansatz = [](int n) { return fcheAnsatz(n, 1); };
    wl.spec.regimes = {RegimeSpec::nisqTableau(4, 17).named("noisy")};
    wl.fn = [](const SweepCell &cell, ExperimentSession &) {
        ++g_evals;
        if (cell.point.qubits == 4) {
            while (!g_release.load()) {
                std::this_thread::sleep_for(1ms);
                cancelCheckpoint();
            }
        }
        SweepRow row;
        row.set("qubits", cell.point.qubits);
        row.set("value", static_cast<double>(cell.point.qubits) * 1.5);
        return row;
    };
    (void)mode;
    return wl;
}

serve::WorkloadCatalog
synthCatalog()
{
    serve::WorkloadCatalog catalog;
    catalog.registerWorkload("synth", synthWorkload);
    return catalog;
}

std::string
tempSocket(const std::string &name)
{
    const std::string path = ::testing::TempDir() + name;
    std::remove(path.c_str());
    return path;
}

serve::ServeConfig
baseConfig(const std::string &socket_name)
{
    serve::ServeConfig config;
    config.socket_path = tempSocket(socket_name);
    config.workers = 2;
    return config;
}

/** Spin until @p predicate or the deadline; false on timeout. */
template <class Pred>
bool
eventually(Pred predicate, std::chrono::milliseconds deadline = 5000ms)
{
    const auto until = std::chrono::steady_clock::now() + deadline;
    while (std::chrono::steady_clock::now() < until) {
        if (predicate())
            return true;
        std::this_thread::sleep_for(1ms);
    }
    return predicate();
}

/** The store line a local in-process run of @p cell produces — the
 *  reference half of the determinism contract. */
std::string
localReferenceLine(const serve::Workload &wl, const SweepCell &cell)
{
    ExperimentSession session(cell.experiment);
    const SweepRow row = wl.fn(cell, session);
    return storefmt::checksummedCellLine(storefmt::serializeCellPayload(
        cell.keyString(), cell.label, row));
}

} // namespace

// --------------------------------------------------------------------
// LruCache, over both of its instantiations
// --------------------------------------------------------------------

namespace {

/** The sweep group-plan memo's instantiation (sim/lane_sweep.cpp). */
using SweepPlanCache = LruCache<std::shared_ptr<const detail::SweepPlan>>;

/** Distinct values per (key, writer) for each cache instantiation:
 *  energy vectors carry both in their contents, sweep plans are
 *  distinct objects (the cache compares them by pointer). */
template <typename Cache> struct LruValues;

template <> struct LruValues<SharedEnergyCache>
{
    static std::vector<double> make(int key, int writer)
    {
        return {static_cast<double>(key), static_cast<double>(writer)};
    }
};

template <> struct LruValues<SweepPlanCache>
{
    static std::shared_ptr<const detail::SweepPlan> make(int, int)
    {
        return std::make_shared<const detail::SweepPlan>();
    }
};

template <typename Cache> class LruCacheTest : public ::testing::Test
{
  protected:
    static auto value(int key, int writer = 0)
    {
        return LruValues<Cache>::make(key, writer);
    }
};

using LruCacheTypes = ::testing::Types<SharedEnergyCache, SweepPlanCache>;

struct LruCacheNames
{
    template <typename Cache> static std::string GetName(int)
    {
        return std::is_same_v<Cache, SharedEnergyCache>
                   ? "SharedEnergyCache"
                   : "SweepPlanCache";
    }
};

} // namespace

TYPED_TEST_SUITE(LruCacheTest, LruCacheTypes, LruCacheNames);

TYPED_TEST(LruCacheTest, RejectsZeroCapacity)
{
    try {
        TypeParam cache(0);
        FAIL() << "a zero-capacity cache must throw";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("LruCache.capacity"),
                  std::string::npos);
    }
}

TYPED_TEST(LruCacheTest, CountsHitsAndMissesAndEvictsLru)
{
    TypeParam cache(2);
    const auto a = this->value(1);
    const auto b = this->value(2);
    const auto c = this->value(3);

    EXPECT_FALSE(cache.find(1).has_value());
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.insert(1, a), a);
    EXPECT_EQ(cache.insert(2, b), b);
    EXPECT_EQ(cache.size(), 2u);

    // Refresh key 1, then overflow: key 2 is the LRU victim.
    EXPECT_EQ(cache.find(1), a);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.insert(3, c), c);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_FALSE(cache.find(2).has_value());
    EXPECT_EQ(cache.find(1), a);
    EXPECT_EQ(cache.find(3), c);
    EXPECT_EQ(cache.hits(), 3u);
    EXPECT_EQ(cache.misses(), 2u);

    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.hits(), 3u); // counters survive clear()
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_FALSE(cache.find(1).has_value());
    EXPECT_EQ(cache.misses(), 3u);
}

TYPED_TEST(LruCacheTest, FirstWriterWinsOnRacingInserts)
{
    // Two engines computing the same key both call insert; everyone
    // must end up holding the canonical entry.
    TypeParam cache(4);
    const auto first = this->value(42, 1);
    const auto second = this->value(42, 2);
    ASSERT_NE(first, second);
    EXPECT_EQ(cache.insert(42, first), first);
    EXPECT_EQ(cache.insert(42, second), first);
    EXPECT_EQ(cache.find(42), first);

    // The losing insert does not refresh the entry's place either: 42
    // stays the least recently used and is the next victim.
    TypeParam pair(2);
    const auto seven = this->value(7);
    pair.insert(42, first);
    pair.insert(7, seven);
    EXPECT_EQ(pair.insert(42, second), first);
    pair.insert(8, this->value(8));
    EXPECT_FALSE(pair.find(42).has_value());
    EXPECT_EQ(pair.find(7), seven);
}

TYPED_TEST(LruCacheTest, ConcurrentFindThenInsertKeepsOneValuePerKey)
{
    // Eight writers race find-then-insert over the same keys for
    // several rounds, four walking them upwards in lockstep and four
    // downwards, so most first inserts of a key race. With room for
    // every key, each key must keep one resident value that every
    // writer got back in every round; under eviction pressure every
    // value returned must still be one written for its key. Either
    // way the counters must account for every find and the size bound
    // must hold throughout.
    constexpr int kThreads = 8;
    constexpr int kKeys = 32;
    constexpr int kRounds = 16;
    using Value = decltype(this->value(0));
    std::vector<std::vector<Value>> values(kKeys);
    for (int k = 0; k < kKeys; ++k)
        for (int t = 0; t < kThreads; ++t)
            values[k].push_back(this->value(k, t));

    for (const size_t capacity : {size_t{kKeys}, size_t{4}}) {
        TypeParam cache(capacity);
        std::vector<std::vector<Value>> got(
            kThreads, std::vector<Value>(kKeys));
        std::atomic<bool> oversize{false};
        std::atomic<bool> foreign{false};
        std::atomic<bool> changed{false};
        std::atomic<int> ready{0};
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t)
            threads.emplace_back([&, t] {
                ready.fetch_add(1);
                while (ready.load() < kThreads)
                    std::this_thread::yield();
                for (int j = 0; j < kKeys * kRounds; ++j) {
                    const int k = t % 2 == 0 ? j % kKeys
                                             : kKeys - 1 - j % kKeys;
                    auto hit = cache.find(static_cast<uint64_t>(k));
                    const Value v =
                        hit ? *hit
                            : cache.insert(static_cast<uint64_t>(k),
                                           values[k][t]);
                    if (std::find(values[k].begin(), values[k].end(), v) ==
                        values[k].end())
                        foreign.store(true);
                    if (cache.size() > capacity)
                        oversize.store(true);
                    if (j < kKeys)
                        got[t][k] = v; // the first value this writer saw
                    else if (capacity >= kKeys && v != got[t][k])
                        changed.store(true);
                }
            });
        for (auto &th : threads)
            th.join();

        EXPECT_FALSE(foreign.load()) << "capacity " << capacity;
        EXPECT_FALSE(oversize.load()) << "capacity " << capacity;
        EXPECT_FALSE(changed.load()) << "capacity " << capacity;
        EXPECT_LE(cache.size(), capacity);
        EXPECT_EQ(cache.hits() + cache.misses(),
                  static_cast<size_t>(kThreads * kKeys * kRounds))
            << "capacity " << capacity;
        if (capacity < kKeys)
            continue; // evicted keys may be re-inserted by a later writer
        for (int k = 0; k < kKeys; ++k) {
            const auto resident = cache.find(static_cast<uint64_t>(k));
            ASSERT_TRUE(resident.has_value()) << "key " << k;
            for (int t = 0; t < kThreads; ++t)
                EXPECT_EQ(got[t][k], *resident)
                    << "key " << k << " writer " << t;
        }
    }
}

// --------------------------------------------------------------------
// Catalog workloads
// --------------------------------------------------------------------

TEST(ServeWorkloads, Fig12SmokeKeysMatchTheStoreFixture)
{
    // The recorded fig12 smoke store is the byte-identity reference of
    // the export and daemon checks; its keys must stay what the
    // catalog's fig12 smoke grid expands to.
    const storefmt::StoreScan fixture = storefmt::readStoreCells(
        std::string(EFTVQA_TEST_DATA_DIR) + "/fig12_smoke_store.json");
    ASSERT_TRUE(fixture.found);
    const std::vector<SweepCell> cells =
        serve::fig12Workload("smoke").spec.cells();
    ASSERT_EQ(cells.size(), 2u);
    ASSERT_EQ(fixture.cells.size(), cells.size());
    for (size_t i = 0; i < cells.size(); ++i) {
        EXPECT_EQ(cells[i].keyString(), fixture.cells[i].key);
        EXPECT_EQ(cells[i].label, fixture.cells[i].label);
    }
    EXPECT_EQ(cells[0].keyString(), "0xbee91f6ed97cb214");
    EXPECT_EQ(cells[1].keyString(), "0x4905aa3dc00a98e3");
}

TEST(ServeWorkloads, BuiltinCatalogIsTheFiveSweepFigures)
{
    EXPECT_EQ(serve::WorkloadCatalog::builtin().names(),
              (std::vector<std::string>{
                  "ablation_rz_cnot_ratio", "fig12_clifford_scale",
                  "fig13_density_matrix_gamma", "fig14_blocked_vs_fche",
                  "fig15_varsaw"}));
}

TEST(ServeWorkloads, EveryWorkloadBuildsAndExpandsInEveryMode)
{
    const serve::WorkloadCatalog catalog = serve::WorkloadCatalog::builtin();
    for (const std::string &name : catalog.names()) {
        for (const char *mode : {"smoke", "default", "full"}) {
            SCOPED_TRACE(name + " " + mode);
            const serve::Workload wl = catalog.build(name, mode);
            EXPECT_EQ(wl.spec.name, name);
            EXPECT_TRUE(static_cast<bool>(wl.fn));
            EXPECT_EQ(wl.spec.cells().size(), wl.spec.cellCount());
        }
        EXPECT_THROW(catalog.build(name, "huge"), std::invalid_argument);
    }
}

TEST(ServeWorkloads, MovedFigureKeysMatchTheirRecordedStores)
{
    // Cell keys of stores written by the drivers before fig13, fig15
    // and the ablation moved into the catalog: a key that moves would
    // make every existing store of that figure re-execute.
    const struct
    {
        const char *name;
        const char *mode;
        std::vector<std::string> keys;
    } recorded[] = {
        {"fig13_density_matrix_gamma", "smoke",
         {"0xe4d1fdd1edb4a7d8", "0xc65a01837ce345a0"}},
        {"fig13_density_matrix_gamma", "default",
         {"0x5e341a618c0c56e8", "0xf82b0e618c7168e9", "0x7ffafe61912b319e",
          "0xf41b9b50a264b876", "0xad4993508fe8605d", "0x30691f508eca841c",
          "0x119aba0bb76c8fd6", "0x3145cb816cb17e87", "0xb3afe63b2742d1c7",
          "0xf4ab3f23a4a05b20", "0xc01eb76b96507551",
          "0x8473d16da593df39"}},
        {"fig15_varsaw", "smoke",
         {"0x5613fd4695e2e936", "0xc1f876ea3bdbfcdd"}},
        {"fig15_varsaw", "default",
         {"0xdecb9adbb089af69", "0x71e522f32a2a1cf0"}},
        {"ablation_rz_cnot_ratio", "smoke",
         {"0x6f33416e61a9b79e", "0xddac39c2c8a6820e", "0x8fd6528368ed2dce",
          "0x72104cbaaa9bd38e"}},
        {"ablation_rz_cnot_ratio", "default",
         {"0x6f33416e61a9b79e", "0xddac39c2c8a6820e", "0x8fd6528368ed2dce",
          "0x72104cbaaa9bd38e"}},
    };
    const serve::WorkloadCatalog catalog = serve::WorkloadCatalog::builtin();
    for (const auto &r : recorded) {
        SCOPED_TRACE(std::string(r.name) + " " + r.mode);
        std::vector<std::string> keys;
        for (const SweepCell &cell : catalog.build(r.name, r.mode).spec.cells())
            keys.push_back(cell.keyString());
        EXPECT_EQ(keys, r.keys);
    }
}

// --------------------------------------------------------------------
// Satellite: cancellation probes in the tableau trajectory loops
// --------------------------------------------------------------------

TEST(CancelProbes, PreCancelledTokenStopsTableauEvaluationAtEntry)
{
    const serve::Workload wl = synthWorkload("default");
    const std::vector<SweepCell> cells = wl.spec.cells();
    ASSERT_FALSE(cells.empty());

    ExperimentSession session(cells[0].experiment);
    auto token = std::make_shared<CancelToken>();
    session.setCancelToken(token);
    token->cancel();

    const Circuit &ansatz = session.spec().ansatz;
    const Circuit bound =
        ansatz.bind(std::vector<double>(ansatz.nParameters(), 0.0));
    EXPECT_THROW(session.energy(session.spec().regime("noisy"), bound),
                 CancelledError);
}

TEST(CancelProbes, TableauTrajectoryLoopHonorsMidEvaluationCancel)
{
    // A trajectory budget far past the cancel latency: without the
    // in-loop probes (stabilizer/noisy_clifford.cpp) this evaluation
    // runs to completion and the test times out instead of throwing.
    SweepSpec spec;
    spec.name = "cancel-probe";
    spec.families = {HamFamily::Ising};
    spec.sizes = {12};
    spec.couplings = {1.0};
    spec.ansatz = [](int n) { return fcheAnsatz(n, 1); };
    spec.regimes = {RegimeSpec::nisqTableau(2000000, 23).named("noisy")};
    const std::vector<SweepCell> cells = spec.cells();
    ASSERT_EQ(cells.size(), 1u);

    ExperimentSession session(cells[0].experiment);
    auto token = std::make_shared<CancelToken>();
    session.setCancelToken(token);

    const Circuit &ansatz = session.spec().ansatz;
    const Circuit bound =
        ansatz.bind(std::vector<double>(ansatz.nParameters(), 0.0));

    std::thread canceller([&] {
        std::this_thread::sleep_for(30ms);
        token->cancel();
    });
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_THROW(session.energy(session.spec().regime("noisy"), bound),
                 CancelledError);
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    canceller.join();
    // The probe fires at trajectory granularity — well under the
    // full-budget runtime (tens of seconds).
    EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(
                  elapsed)
                  .count(),
              10000);
}

// --------------------------------------------------------------------
// Daemon: validation before work
// --------------------------------------------------------------------

TEST(Daemon, ConfigValidationNamesTheField)
{
    serve::ServeConfig config; // no socket path
    EXPECT_THROW(config.validate(), std::invalid_argument);
    config.socket_path = tempSocket("serve_cfg.sock");
    config.max_pending = 0;
    EXPECT_THROW(config.validate(), std::invalid_argument);
    config.max_pending = 4;
    config.per_client_inflight = 0;
    EXPECT_THROW(config.validate(), std::invalid_argument);
    config.per_client_inflight = 2;
    config.cache_capacity = 0;
    EXPECT_THROW(config.validate(), std::invalid_argument);
    config.cache_capacity = 16;

    // Counts past their limits: the error names the field and the
    // limit. Validated only: no daemon or pool starts at these counts.
    const auto expectOverLimit = [](const serve::ServeConfig &over,
                                    const std::string &field,
                                    size_t limit) {
        try {
            over.validate();
            ADD_FAILURE() << field << " past " << limit << " must throw";
        } catch (const std::invalid_argument &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find(field + ": must be <= " +
                                std::to_string(limit)),
                      std::string::npos)
                << what;
        }
    };
    serve::ServeConfig over = config;
    over.max_pending = serve::kMaxAdmitted + 1;
    expectOverLimit(over, "ServeConfig.max_pending", serve::kMaxAdmitted);
    over = config;
    over.per_client_inflight = serve::kMaxAdmitted + 1;
    expectOverLimit(over, "ServeConfig.per_client_inflight",
                    serve::kMaxAdmitted);
    over.max_pending = serve::kMaxAdmitted;
    over.per_client_inflight = serve::kMaxAdmitted;
    EXPECT_NO_THROW(over.validate());
    config.workers = kMaxWorkers + 1;
    expectOverLimit(config, "ServeConfig.workers", kMaxWorkers);
    config.workers = kMaxWorkers;
    EXPECT_NO_THROW(config.validate());
}

TEST(Daemon, RejectsMalformedAndUnknownRequests)
{
    resetSynthState(true);
    const serve::ServeConfig config = baseConfig("serve_val.sock");
    serve::Daemon daemon(config, synthCatalog());
    serve::DaemonClient client =
        serve::DaemonClient::connectUnix(config.socket_path);
    serve::DaemonReply reply;

    // Garbage bytes: structured err, not a dropped connection.
    ASSERT_TRUE(writeFrame(client.fd(), "not json at all"));
    ASSERT_TRUE(client.readReply(reply));
    EXPECT_EQ(reply.type, "err");
    EXPECT_EQ(reply.code, "bad_request");

    // Unknown request type.
    ASSERT_TRUE(writeFrame(client.fd(), "{\"type\":\"bogus\",\"id\":5}"));
    ASSERT_TRUE(client.readReply(reply));
    EXPECT_EQ(reply.type, "err");
    EXPECT_EQ(reply.id, 5);
    EXPECT_EQ(reply.code, "bad_request");

    // Run without a key.
    ASSERT_TRUE(writeFrame(
        client.fd(), "{\"type\":\"run\",\"id\":6,\"workload\":\"synth\"}"));
    ASSERT_TRUE(client.readReply(reply));
    EXPECT_EQ(reply.code, "bad_request");

    const serve::Workload wl = synthWorkload("default");
    const std::string key = wl.spec.cells()[0].keyString();

    // Unknown workload name.
    ASSERT_TRUE(client.sendRun(7, "nope", "default", key));
    ASSERT_TRUE(client.readReply(reply));
    EXPECT_EQ(reply.code, "unknown_workload");
    EXPECT_EQ(reply.category, "invalid_argument");

    // Bad mode string (builder validation surfaces as bad_request).
    ASSERT_TRUE(client.sendRun(8, "synth", "warp9", key));
    ASSERT_TRUE(client.readReply(reply));
    EXPECT_EQ(reply.code, "bad_request");

    // Key outside the expanded grid.
    ASSERT_TRUE(client.sendRun(9, "synth", "default", "0xdeadbeef"));
    ASSERT_TRUE(client.readReply(reply));
    EXPECT_EQ(reply.code, "unknown_cell");

    // Bad isolation value.
    ASSERT_TRUE(client.sendRun(10, "synth", "default", key, "weird"));
    ASSERT_TRUE(client.readReply(reply));
    EXPECT_EQ(reply.code, "bad_request");

    // Ping still answered on the same connection — rejections never
    // tore it down.
    ASSERT_TRUE(client.sendPing(11));
    ASSERT_TRUE(client.readReply(reply));
    EXPECT_EQ(reply.type, "pong");
    EXPECT_EQ(reply.id, 11);

    // Nothing was ever admitted.
    const serve::DaemonStats stats = daemon.stats();
    EXPECT_EQ(stats.cells_completed + stats.cells_failed, 0u);
    EXPECT_EQ(g_evals.load(), 0);
}

// --------------------------------------------------------------------
// Daemon: the determinism contract
// --------------------------------------------------------------------

TEST(Daemon, ResultBytesMatchLocalInProcessRuns)
{
    resetSynthState(true);
    const serve::ServeConfig config = baseConfig("serve_det.sock");
    serve::Daemon daemon(config, synthCatalog());
    serve::DaemonClient client =
        serve::DaemonClient::connectUnix(config.socket_path);

    const serve::Workload wl = synthWorkload("default");
    const std::vector<SweepCell> cells = wl.spec.cells();
    ASSERT_EQ(cells.size(), 3u);

    for (size_t i = 0; i < cells.size(); ++i) {
        ASSERT_TRUE(client.sendRun(static_cast<long long>(i) + 1,
                                   "synth", "default",
                                   cells[i].keyString()));
        serve::DaemonReply reply;
        ASSERT_TRUE(client.readReply(reply));
        ASSERT_EQ(reply.type, "ok") << reply.error;
        EXPECT_EQ(reply.id, static_cast<long long>(i) + 1);
        EXPECT_EQ(reply.key, cells[i].keyString());
        // The wire payload is the exact checksummed store line a local
        // in-process run stores for this cell.
        EXPECT_EQ(reply.payload, localReferenceLine(wl, cells[i]));

        // And it parses + verifies like any store line.
        std::string key, label;
        SweepRow row;
        ASSERT_TRUE(storefmt::parseChecksummedLine(reply.payload, key,
                                                   label, row));
        EXPECT_EQ(key, cells[i].keyString());
        EXPECT_EQ(row.integer("qubits"), cells[i].point.qubits);
    }

    const serve::DaemonStats stats = daemon.stats();
    EXPECT_EQ(stats.cells_completed, 3u);
    EXPECT_EQ(stats.cells_failed, 0u);
    EXPECT_EQ(stats.requests_total, 3u);
}

TEST(Daemon, StatsFrameCarriesTheCountersItsReadersNameByField)
{
    // Readers of the wire stats frame (perfbench's serve_mixed
    // workload) look counters up by field name and read a missing one
    // as 0, so a renamed field would pass silently there. Pin the
    // names, each value against the in-process snapshot, and the
    // frame's whole field list.
    resetSynthState(true);
    serve::ServeConfig config = baseConfig("serve_stats.sock");
    config.store_path = ::testing::TempDir() + "serve_stats.store";
    std::remove(config.store_path.c_str());
    {
        serve::Daemon daemon(config, synthCatalog());
        serve::DaemonClient client =
            serve::DaemonClient::connectUnix(config.socket_path);
        // One evaluated cell, then the same key again (a store hit).
        const std::string key =
            synthWorkload("default").spec.cells()[1].keyString();
        for (const long long id : {1, 2}) {
            ASSERT_TRUE(client.sendRun(id, "synth", "default", key));
            serve::DaemonReply reply;
            ASSERT_TRUE(client.readReply(reply));
            ASSERT_EQ(reply.type, "ok") << reply.error;
        }

        const serve::DaemonReply frame = client.stats();
        const serve::DaemonStats s = daemon.stats();
        EXPECT_EQ(s.cells_completed, 1u);
        EXPECT_EQ(s.store_hits, 1u);
        const std::vector<std::pair<std::string, size_t>> read_by_name = {
            {"cells_coalesced", s.cells_coalesced},
            {"cells_completed", s.cells_completed},
            {"energy_cache_hits", s.energy_cache_hits},
            {"energy_cache_misses", s.energy_cache_misses},
            {"rejected_busy", s.rejected_busy},
            {"rejected_quota", s.rejected_quota},
            {"rejected_draining", s.rejected_draining},
            {"store_hits", s.store_hits},
            {"store_appends", s.store_appends},
            {"store_fsyncs", s.store_fsyncs},
            {"store_max_commit_batch", s.store_max_commit_batch},
        };
        for (const auto &[name, value] : read_by_name) {
            SCOPED_TRACE(name);
            ASSERT_TRUE(frame.fields.has(name));
            EXPECT_EQ(frame.fields.num(name), static_cast<double>(value));
        }
        // The whole frame, in order: nothing else rides along.
        std::vector<std::string> names;
        for (const auto &[name, value] : frame.fields.fields())
            names.push_back(name);
        EXPECT_EQ(names,
                  (std::vector<std::string>{
                      "type", "id", "connections_total", "connections_open",
                      "requests_total", "cells_queued", "cells_active",
                      "cells_completed", "cells_failed", "cells_coalesced",
                      "cells_cancelled", "rejected_busy", "rejected_quota",
                      "rejected_draining", "energy_cache_hits",
                      "energy_cache_misses", "store_cells", "store_hits",
                      "store_appends", "store_fsyncs",
                      "store_max_commit_batch", "store_compactions",
                      "store_index_rebuilds", "store_reader_opens"}));

        daemon.beginDrain();
        daemon.waitDrained();
    }
    std::remove(config.store_path.c_str());
}

TEST(Daemon, ServesMovedFigureCellsByteIdenticalToLocalRuns)
{
    // The builtin catalog serves the figures that used to build their
    // sweeps in their drivers' main: the analytic ablation and fig15's
    // density-matrix + VarSaw cells.
    const serve::ServeConfig config = baseConfig("serve_builtin.sock");
    serve::Daemon daemon(config, serve::WorkloadCatalog::builtin());
    serve::DaemonClient client =
        serve::DaemonClient::connectUnix(config.socket_path);

    long long id = 0;
    for (const auto &[name, mode] :
         {std::pair<std::string, std::string>{"ablation_rz_cnot_ratio",
                                              "default"},
          {"fig15_varsaw", "smoke"}}) {
        const serve::Workload wl =
            serve::WorkloadCatalog::builtin().build(name, mode);
        for (const SweepCell &cell : wl.spec.cells()) {
            SCOPED_TRACE(cell.label);
            ASSERT_TRUE(client.sendRun(++id, name, mode, cell.keyString()));
            serve::DaemonReply reply;
            ASSERT_TRUE(client.readReply(reply));
            ASSERT_EQ(reply.type, "ok") << reply.error;
            EXPECT_EQ(reply.payload, localReferenceLine(wl, cell));
        }
    }
    EXPECT_EQ(daemon.stats().cells_completed, 6u);
}

// --------------------------------------------------------------------
// Daemon: request coalescing
// --------------------------------------------------------------------

TEST(Daemon, CoalescesConcurrentIdenticalCellsIntoOneEvaluation)
{
    resetSynthState(false); // blocking cell holds the window open
    const serve::ServeConfig config = baseConfig("serve_coal.sock");
    serve::Daemon daemon(config, synthCatalog());

    const serve::Workload wl = synthWorkload("default");
    const SweepCell blocked = wl.spec.cells()[0]; // qubits==4 blocks

    serve::DaemonClient a =
        serve::DaemonClient::connectUnix(config.socket_path);
    serve::DaemonClient b =
        serve::DaemonClient::connectUnix(config.socket_path);

    ASSERT_TRUE(a.sendRun(1, "synth", "default", blocked.keyString()));
    // The evaluation is definitely in flight before the second client
    // asks for the same cell — no race about what "concurrent" means.
    ASSERT_TRUE(eventually([] { return g_evals.load() == 1; }));
    ASSERT_TRUE(b.sendRun(2, "synth", "default", blocked.keyString()));
    ASSERT_TRUE(eventually(
        [&] { return daemon.stats().cells_coalesced == 1; }));

    g_release.store(true);
    serve::DaemonReply ra, rb;
    ASSERT_TRUE(a.readReply(ra));
    ASSERT_TRUE(b.readReply(rb));
    ASSERT_EQ(ra.type, "ok") << ra.error;
    ASSERT_EQ(rb.type, "ok") << rb.error;
    EXPECT_EQ(ra.id, 1);
    EXPECT_EQ(rb.id, 2);

    // The coalescing pin: exactly one evaluation, byte-identical
    // lines to both clients.
    EXPECT_EQ(g_evals.load(), 1);
    EXPECT_EQ(ra.payload, rb.payload);

    const serve::DaemonStats stats = daemon.stats();
    EXPECT_EQ(stats.cells_completed, 1u);
    EXPECT_EQ(stats.cells_coalesced, 1u);
    EXPECT_EQ(stats.requests_total, 2u);
}

// --------------------------------------------------------------------
// Daemon: admission control
// --------------------------------------------------------------------

TEST(Daemon, EnforcesPerClientInflightQuota)
{
    resetSynthState(false);
    serve::ServeConfig config = baseConfig("serve_quota.sock");
    config.workers = 1;
    config.per_client_inflight = 1;
    serve::Daemon daemon(config, synthCatalog());

    const serve::Workload wl = synthWorkload("default");
    const std::vector<SweepCell> cells = wl.spec.cells();
    serve::DaemonClient client =
        serve::DaemonClient::connectUnix(config.socket_path);

    ASSERT_TRUE(client.sendRun(1, "synth", "default",
                               cells[0].keyString()));
    ASSERT_TRUE(eventually([] { return g_evals.load() == 1; }));
    // Second request while the first is unanswered: over quota.
    ASSERT_TRUE(client.sendRun(2, "synth", "default",
                               cells[1].keyString()));
    serve::DaemonReply reply;
    ASSERT_TRUE(client.readReply(reply));
    EXPECT_EQ(reply.type, "err");
    EXPECT_EQ(reply.id, 2);
    EXPECT_EQ(reply.code, "quota");
    EXPECT_EQ(reply.category, "resource");

    g_release.store(true);
    ASSERT_TRUE(client.readReply(reply));
    EXPECT_EQ(reply.type, "ok");
    EXPECT_EQ(reply.id, 1);

    // Quota frees up once the first cell is answered.
    ASSERT_TRUE(client.sendRun(3, "synth", "default",
                               cells[1].keyString()));
    ASSERT_TRUE(client.readReply(reply));
    EXPECT_EQ(reply.type, "ok");
    EXPECT_EQ(daemon.stats().rejected_quota, 1u);
}

TEST(Daemon, RejectsWorkPastThePendingQueueBound)
{
    resetSynthState(false);
    serve::ServeConfig config = baseConfig("serve_busy.sock");
    config.workers = 1;    // one executing slot
    config.max_pending = 1; // one queued job
    serve::Daemon daemon(config, synthCatalog());

    const serve::Workload wl = synthWorkload("default");
    const std::vector<SweepCell> cells = wl.spec.cells();
    serve::DaemonClient client =
        serve::DaemonClient::connectUnix(config.socket_path);

    // Job 1 occupies the single worker (blocked); job 2 sits queued;
    // job 3 overflows the pending bound.
    ASSERT_TRUE(client.sendRun(1, "synth", "default",
                               cells[0].keyString()));
    ASSERT_TRUE(eventually([] { return g_evals.load() == 1; }));
    ASSERT_TRUE(client.sendRun(2, "synth", "default",
                               cells[1].keyString()));
    ASSERT_TRUE(eventually(
        [&] { return daemon.stats().cells_queued == 1; }));
    ASSERT_TRUE(client.sendRun(3, "synth", "default",
                               cells[2].keyString()));
    serve::DaemonReply reply;
    ASSERT_TRUE(client.readReply(reply));
    EXPECT_EQ(reply.type, "err");
    EXPECT_EQ(reply.id, 3);
    EXPECT_EQ(reply.code, "busy");

    g_release.store(true);
    ASSERT_TRUE(client.readReply(reply));
    EXPECT_EQ(reply.type, "ok");
    EXPECT_EQ(reply.id, 1);
    ASSERT_TRUE(client.readReply(reply));
    EXPECT_EQ(reply.type, "ok");
    EXPECT_EQ(reply.id, 2);
    EXPECT_EQ(daemon.stats().rejected_busy, 1u);
}

// --------------------------------------------------------------------
// Daemon: client disconnect cancels only that client's cells
// --------------------------------------------------------------------

TEST(Daemon, DisconnectCancelsOwnCellsWithoutTouchingOtherClients)
{
    resetSynthState(false);
    const serve::ServeConfig config = baseConfig("serve_cancel.sock");
    serve::Daemon daemon(config, synthCatalog());

    const serve::Workload wl = synthWorkload("default");
    const std::vector<SweepCell> cells = wl.spec.cells();

    // Client B's fast cell completes normally alongside A's blocked
    // one (two workers).
    serve::DaemonClient b =
        serve::DaemonClient::connectUnix(config.socket_path);
    {
        serve::DaemonClient a =
            serve::DaemonClient::connectUnix(config.socket_path);
        ASSERT_TRUE(a.sendRun(1, "synth", "default",
                              cells[0].keyString()));
        ASSERT_TRUE(eventually([] { return g_evals.load() == 1; }));
        ASSERT_TRUE(b.sendRun(2, "synth", "default",
                              cells[1].keyString()));
        serve::DaemonReply rb;
        ASSERT_TRUE(b.readReply(rb));
        EXPECT_EQ(rb.type, "ok");
        // A drops with its blocked cell still in flight.
    }

    // The disconnect seam: the orphaned job's token is cancelled and
    // the evaluation unwinds at its next checkpoint — with the latch
    // still closed, only cancellation can settle it.
    ASSERT_TRUE(eventually(
        [&] { return daemon.stats().cells_cancelled == 1; }));
    daemon.beginDrain();
    daemon.waitDrained();

    const serve::DaemonStats stats = daemon.stats();
    EXPECT_EQ(stats.cells_cancelled, 1u);
    EXPECT_EQ(stats.cells_completed, 1u); // B's cell
    EXPECT_EQ(stats.cells_failed, 0u);    // cancel is not a failure

    // B's connection is untouched by A's disconnect.
    serve::DaemonReply reply;
    ASSERT_TRUE(b.sendPing(9));
    ASSERT_TRUE(b.readReply(reply));
    EXPECT_EQ(reply.type, "pong");
}

// --------------------------------------------------------------------
// Daemon: graceful drain
// --------------------------------------------------------------------

TEST(Daemon, DrainsInFlightWorkAndRejectsNewRequests)
{
    resetSynthState(false);
    serve::ServeConfig config = baseConfig("serve_drain.sock");
    config.workers = 1;
    serve::Daemon daemon(config, synthCatalog());

    const serve::Workload wl = synthWorkload("default");
    const std::vector<SweepCell> cells = wl.spec.cells();
    serve::DaemonClient client =
        serve::DaemonClient::connectUnix(config.socket_path);

    ASSERT_TRUE(client.sendRun(1, "synth", "default",
                               cells[0].keyString()));
    ASSERT_TRUE(eventually([] { return g_evals.load() == 1; }));

    daemon.beginDrain();
    // New work after drain began: structured rejection.
    ASSERT_TRUE(client.sendRun(2, "synth", "default",
                               cells[1].keyString()));
    serve::DaemonReply reply;
    ASSERT_TRUE(client.readReply(reply));
    EXPECT_EQ(reply.type, "err");
    EXPECT_EQ(reply.code, "draining");

    // The admitted job still completes and is answered.
    g_release.store(true);
    ASSERT_TRUE(client.readReply(reply));
    EXPECT_EQ(reply.type, "ok");
    EXPECT_EQ(reply.id, 1);
    daemon.waitDrained();

    const serve::DaemonStats stats = daemon.stats();
    EXPECT_EQ(stats.cells_completed, 1u);
    EXPECT_EQ(stats.rejected_draining, 1u);
    daemon.stop(); // explicit stop after drain — the vqad sequence
}

// --------------------------------------------------------------------
// runSweepViaDaemon: the drivers' --daemon engine
// --------------------------------------------------------------------

TEST(DaemonSweep, RunsAWholeSweepAndResumesFromTheStore)
{
    resetSynthState(true);
    const serve::ServeConfig config = baseConfig("serve_sweep.sock");
    serve::Daemon daemon(config, synthCatalog());

    const serve::Workload wl = synthWorkload("default");
    const std::vector<SweepCell> cells = wl.spec.cells();
    const std::string store_path = ::testing::TempDir() + "serve_sweep.store";
    std::remove(store_path.c_str());

    serve::DaemonRunOptions options;
    options.workload = "synth";
    options.mode = "default";

    {
        serve::DaemonClient client =
            serve::DaemonClient::connectUnix(config.socket_path);
        store::BinarySweepSink sink(store_path, "synth");
        const SweepReport report =
            serve::runSweepViaDaemon(client, cells, options, &sink);
        EXPECT_EQ(report.cells, 3u);
        EXPECT_EQ(report.executed, 3u);
        EXPECT_EQ(report.skipped, 0u);
        EXPECT_EQ(report.failed, 0u);
    }
    EXPECT_EQ(g_evals.load(), 3);

    // Stored rows equal local in-process rows (sink-level determinism:
    // the store holds the daemon's verified lines).
    {
        store::BinarySweepSink sink(store_path, "synth");
        EXPECT_EQ(sink.loadedCells(), 3u);
        for (const SweepCell &cell : cells) {
            ASSERT_TRUE(sink.contains(cell));
            ExperimentSession session(cell.experiment);
            EXPECT_TRUE(sink.storedRow(cell) == wl.fn(cell, session));
        }
    }

    // Resume: a second daemon-backed run re-requests nothing (the
    // local comparator above also ran the fn, hence the delta check).
    const int evals_before_resume = g_evals.load();
    {
        serve::DaemonClient client =
            serve::DaemonClient::connectUnix(config.socket_path);
        store::BinarySweepSink sink(store_path, "synth");
        const SweepReport report =
            serve::runSweepViaDaemon(client, cells, options, &sink);
        EXPECT_EQ(report.executed, 0u);
        EXPECT_EQ(report.skipped, 3u);
    }
    EXPECT_EQ(g_evals.load(), evals_before_resume);

    // Structured rejections surface as quarantine outcomes, not
    // exceptions: ask for a cell the workload does not have.
    {
        serve::DaemonClient client =
            serve::DaemonClient::connectUnix(config.socket_path);
        SweepSpec other = synthWorkload("default").spec;
        other.sizes = {4, 6, 16}; // 16 is not in the served grid
        const std::vector<SweepCell> foreign = other.cells();
        const SweepReport report =
            serve::runSweepViaDaemon(client, foreign, options, nullptr);
        EXPECT_EQ(report.failed, 1u);
        ASSERT_EQ(report.outcomes.size(), 3u);
        EXPECT_FALSE(report.outcomes[2].ok);
        EXPECT_EQ(report.outcomes[2].category,
                  ErrorCategory::invalid_argument);
    }

    std::remove(store_path.c_str());
}
