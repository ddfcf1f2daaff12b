#include "batch.hpp"

#include <filesystem>

#include "layers.hpp"
#include "store/sink.hpp"

namespace eftbench {

using namespace eftvqa;

namespace {
const int kSetupRepeats = 20;
}

std::string
BatchRounds::keptStore(const Run &run) const
{
    return run.dir + "/" + name + "-0.store";
}

bool
BatchRounds::round(Run &run, size_t r, bool traced, const BatchCellFn &fn)
{
    const std::string path =
        run.dir + "/" + name + "-" + std::to_string(r) + ".store";
    std::unique_ptr<SweepRunner> runner;
    std::unique_ptr<SweepSink> sink;

    // Set-up: what the program does once before its first cell — the
    // SweepRunner constructor (grid expansion and content keys) and the
    // store's creation. Building the spec is the benchmark's input
    // generation and stays outside. It is repeated (the last one is
    // kept) so setup_s rests on many samples per round.
    Clock::time_point t0;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
        sink.reset();
        runner.reset();
        std::filesystem::remove(path);
        SweepSpec s = spec();
        t0 = Clock::now();
        Span span("vqa.setup");
        runner = std::make_unique<SweepRunner>(std::move(s));
        sink = store::makeSweepSink(path, name);
        setup_s.push_back(msSince(t0) / 1000.0);
    }
    // SweepRunner::run builds each cell's session inside the timed
    // phase; a traced round also times building one per cell, with
    // every regime's engine, on its own.
    if (traced)
        for (const SweepCell &cell : runner->cells()) {
            t0 = Clock::now();
            Span span("vqa.session");
            ExperimentSession session(cell.experiment);
            for (const RegimeSpec &regime : cell.experiment.regimes)
                session.engine(regime);
            run.samples.add("vqa.session_ms", msSince(t0));
        }

    t0 = Clock::now();
    SweepReport report;
    {
        Span span("vqa.sweep");
        const long long sweep_span = span.id();
        report = runner->run(
            [&](const SweepCell &cell, ExperimentSession &session) {
                return fn(cell, session, sweep_span);
            },
            sink.get());
    }
    wall_s.push_back(msSince(t0) / 1000.0);
    run.walls.emplace_back(traced, wall_s.back());
    sink.reset();
    ++rounds;
    run.ok(report.cells);
    cache_hits += report.cache_hits;
    cache_lookups += report.cache_hits + report.cache_misses;

    bool ok = run.check(report.executed == report.cells && report.failed == 0,
                        name + ": every cell executes");
    if (r == 0) {
        rows = report.rows;
        cells = runner->cells();
    } else {
        for (size_t i = 0; i < report.rows.size(); ++i)
            ok &= run.check(i < rows.size() && report.rows[i] == rows[i],
                            name + ": rows bit-identical to round 0");
    }
    {
        store::SweepStore reopened(path, store::SweepStore::Mode::read_only);
        ok &= run.check(reopened.cellCount() == report.cells,
                        name + ": store holds every cell");
    }
    if (r != 0)
        std::filesystem::remove(path);
    return ok;
}

void
BatchRounds::metrics(Run &run, double energies_per_round) const
{
    const double wall = median(wall_s);
    run.metric("setup_s", median(setup_s), "s", setup_s.size());
    run.metric("wall_s", wall, "s", wall_s.size());
    run.metric("evals_per_s", energies_per_round / wall, "1/s", wall_s.size());
    run.metric("requests_per_s", static_cast<double>(cells.size()) / wall,
               "1/s", wall_s.size());
    run.note("rounds", static_cast<double>(rounds), "count");
    run.note("energies_per_round", energies_per_round, "count");
}

void
BatchRounds::traceTail(Run &run) const
{
    for (int i = 0; i < 3; ++i) {
        const SweepSpec s = spec();
        const auto t0 = Clock::now();
        const auto expanded = s.cells();
        run.samples.add("vqa.sweep_expand_ms", msSince(t0));
    }
    run.samples.add("vqa.cache_hit_ratio",
                    cache_lookups ? static_cast<double>(cache_hits) /
                                        static_cast<double>(cache_lookups)
                                  : 0.0);
    run.samples.add("vqa.cache_lookups", static_cast<double>(cache_lookups) /
                                             static_cast<double>(rounds));
    storeLayer(run, keptStore(run));
}

} // namespace eftbench
