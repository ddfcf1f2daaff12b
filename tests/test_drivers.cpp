/**
 * @file
 * The sweep-figure driver body (bench/sweep_driver.hpp): its flag
 * parser rejects what a driver cannot use at parse time, and the
 * built drivers end every error with a message and an exit code, not
 * an abort — a library exception exits 1 naming the bench, and a run
 * whose every cell quarantined still reports and writes --out.
 *
 * The exit-path cases run the built fig12/fig13/fig14 binaries on
 * their smoke grids and skip when the drivers are not built.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "sweep_driver.hpp"

using namespace eftvqa;

namespace {

/** tryParse of "drv @p flags"; the rejection message lands in @p err. */
std::optional<bench::DriverArgs>
parse(std::vector<std::string> flags, std::string *err = nullptr,
      bool sweep_flags = true)
{
    flags.insert(flags.begin(), "drv");
    std::vector<char *> argv;
    for (std::string &flag : flags)
        argv.push_back(flag.data());
    std::ostringstream os;
    auto args = bench::DriverArgs::tryParse(static_cast<int>(argv.size()),
                                            argv.data(), os, sweep_flags);
    if (err)
        *err = os.str();
    return args;
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

struct DriverRun
{
    int exit_code = -1; ///< -1 when the driver did not exit normally
    std::string out, err;
};

std::string
driverPath(const std::string &bench)
{
    return std::string(EFTVQA_BENCH_DIR) + "/" + bench;
}

/** Run built driver @p bench with @p args on one OpenMP thread;
 *  @p tag keeps concurrent tests' capture files apart. */
DriverRun
runDriver(const std::string &bench, const std::string &args,
          const std::string &tag)
{
    const std::string out = ::testing::TempDir() + tag + ".stdout";
    const std::string err = ::testing::TempDir() + tag + ".stderr";
    const std::string cmd = "OMP_NUM_THREADS=1 '" + driverPath(bench) +
                            "' " + args + " > '" + out + "' 2> '" + err +
                            "'";
    const int status = std::system(cmd.c_str());
    DriverRun run;
    if (WIFEXITED(status))
        run.exit_code = WEXITSTATUS(status);
    run.out = readFile(out);
    run.err = readFile(err);
    std::remove(out.c_str());
    std::remove(err.c_str());
    return run;
}

bool
contains(const std::string &text, const std::string &part)
{
    return text.find(part) != std::string::npos;
}

} // namespace

TEST(DriverArgs, RejectsNonNumericAndNegativeValues)
{
    for (const char *flag : {"--cell-timeout", "--cell-hard-timeout",
                             "--workers", "--inject-abort"}) {
        for (const char *value : {"abc", "-1", "", "5ms", "nan", "inf"}) {
            SCOPED_TRACE(std::string(flag) + " '" + value + "'");
            std::string err;
            EXPECT_FALSE(parse({"--smoke", flag, value}, &err));
            EXPECT_TRUE(contains(err, flag)) << err;
            EXPECT_TRUE(contains(err, "usage: drv")) << err;
        }
    }
    // Counts take whole numbers; a flag missing its value is rejected.
    EXPECT_FALSE(parse({"--workers", "1.5"}));
    EXPECT_FALSE(parse({"--inject-abort", "2.0"}));
    EXPECT_FALSE(parse({"--smoke", "--workers"}));
    EXPECT_FALSE(parse({"--isolation", "threads"}));
}

TEST(DriverArgs, AcceptsNonNegativeNumbers)
{
    const auto args =
        parse({"--full", "--smoke", "--cell-timeout", "250",
               "--cell-hard-timeout", "1.5", "--isolation", "process",
               "--workers", "0", "--inject-abort", "2"});
    ASSERT_TRUE(args);
    EXPECT_TRUE(args->smoke);
    EXPECT_FALSE(args->full); // --smoke wins
    EXPECT_STREQ(args->modeName(), "smoke");
    EXPECT_EQ(args->cell_timeout_ms, 250.0);
    EXPECT_EQ(args->cell_hard_timeout_ms, 1.5);
    EXPECT_EQ(args->isolation, "process");
    EXPECT_EQ(args->workers, 0u);
    EXPECT_EQ(args->inject_abort, 2u);
}

TEST(DriverArgs, OutputOnlyDriversAcceptSmokeFullAndOut)
{
    const auto args = parse({"--full", "--out", "b.json"}, nullptr,
                            /*sweep_flags=*/false);
    ASSERT_TRUE(args);
    EXPECT_TRUE(args->full);
    EXPECT_EQ(args->out, "b.json");

    const std::vector<std::vector<std::string>> sweep_only = {
        {"--cells", "c.store"},     {"--store", "c.store"},
        {"--daemon", "d.sock"},     {"--merge", "o.store", "i.store"},
        {"--retry-failed"},         {"--cell-timeout", "5"},
        {"--isolation", "process"}, {"--workers", "2"},
        {"--inject-abort", "1"},    {"--cell-hard-timeout", "5"},
    };
    for (const auto &flags : sweep_only) {
        SCOPED_TRACE(flags.front());
        std::string err;
        EXPECT_FALSE(parse(flags, &err, /*sweep_flags=*/false));
        EXPECT_TRUE(contains(err, flags.front())) << err;
        EXPECT_TRUE(parse(flags)) << "sweep drivers accept it";
    }
}

TEST(DriverExit, LibraryErrorPrintsTheBenchAndExitsOne)
{
    if (!std::ifstream(driverPath("fig14_blocked_vs_fche")).good())
        GTEST_SKIP() << "bench drivers not built";

    // A JSON store handed to --cells: the sink refuses it.
    const std::string json = ::testing::TempDir() + "driver_exit_store.json";
    std::ofstream(json, std::ios::binary)
        << readFile(std::string(EFTVQA_TEST_DATA_DIR) +
                    "/fig12_smoke_store.json");
    const DriverRun store =
        runDriver("fig14_blocked_vs_fche", "--smoke --cells '" + json + "'",
                  "driver_exit_store");
    EXPECT_EQ(store.exit_code, 1) << store.err;
    EXPECT_TRUE(contains(store.err, "fig14_blocked_vs_fche: ")) << store.err;
    EXPECT_TRUE(contains(store.err, "vqastore import")) << store.err;
    std::remove(json.c_str());

    // No daemon behind --daemon.
    const DriverRun daemon = runDriver(
        "fig12_clifford_scale",
        "--smoke --daemon '" + ::testing::TempDir() + "no_such_vqad.sock'",
        "driver_exit_daemon");
    EXPECT_EQ(daemon.exit_code, 1) << daemon.err;
    EXPECT_TRUE(contains(daemon.err, "fig12_clifford_scale: "))
        << daemon.err;
}

TEST(DriverExit, AllCellsQuarantinedStillReportsAndWritesOut)
{
    // A 1 ms soft deadline times out every smoke cell of fig12 (one
    // per family) and of fig13: no averages or maxima exist.
    for (const char *bench :
         {"fig12_clifford_scale", "fig13_density_matrix_gamma"}) {
        SCOPED_TRACE(bench);
        if (!std::ifstream(driverPath(bench)).good())
            GTEST_SKIP() << "bench drivers not built";
        const std::string base =
            ::testing::TempDir() + "driver_quarantine_" + bench;
        std::remove((base + ".store").c_str());
        const DriverRun run = runDriver(
            bench,
            "--smoke --cell-timeout 1 --cells '" + base +
                ".store' --out '" + base + ".json'",
            std::string("driver_quarantine_run_") + bench);
        EXPECT_EQ(run.exit_code, 0) << run.err;
        EXPECT_TRUE(contains(
            run.out, "sweep: 2 cells, 2 executed, 0 skipped, 2 quarantined"))
            << run.out;
        EXPECT_TRUE(contains(run.out, "gamma average = n/a")) << run.out;

        const std::string out = readFile(base + ".json");
        EXPECT_TRUE(contains(out, "\"bench\": \"" + std::string(bench)))
            << out;
        EXPECT_TRUE(contains(out, "\"rows\": []")) << out;
        EXPECT_FALSE(contains(out, "gamma_avg")) << out;
        std::remove((base + ".store").c_str());
        std::remove((base + ".json").c_str());
    }
}
