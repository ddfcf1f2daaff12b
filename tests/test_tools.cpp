/**
 * @file
 * The service tools' command lines (tools/tool_args.hpp): every
 * numeric flag of vqad and vqac rejects non-numeric, negative,
 * non-finite and out-of-range values at parse time, in-process, so
 * no daemon or worker pool is ever started here. One case runs the
 * built vqac to pin that a bad value exits 2 before it connects.
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

#include "tool_args.hpp"

using namespace eftvqa;

namespace {

/** argv of "<tool> @p args" for the parsers. */
struct Argv
{
    explicit Argv(const std::string &tool, std::vector<std::string> args)
        : words(std::move(args))
    {
        words.insert(words.begin(), tool);
        for (std::string &w : words)
            ptrs.push_back(w.data());
    }
    int argc() const { return static_cast<int>(ptrs.size()); }
    char **argv() { return ptrs.data(); }

    std::vector<std::string> words;
    std::vector<char *> ptrs;
};

std::optional<serve::ServeConfig>
parseVqad(std::vector<std::string> args, std::string *err = nullptr)
{
    Argv a("vqad", std::move(args));
    std::ostringstream out;
    auto config = tools::parseVqadArgs(a.argc(), a.argv(), out);
    if (err)
        *err = out.str();
    return config;
}

std::optional<tools::VqacArgs>
parseVqac(std::vector<std::string> args, std::string *err = nullptr)
{
    Argv a("vqac", std::move(args));
    std::ostringstream out;
    auto parsed = tools::parseVqacArgs(a.argc(), a.argv(), out);
    if (err)
        *err = out.str();
    return parsed;
}

bool
contains(const std::string &text, const std::string &part)
{
    return text.find(part) != std::string::npos;
}

/** Values no numeric flag accepts. */
const std::vector<std::string> kBadEverywhere = {
    "abc", "", "5ms", "-1", "-0.5", "nan", "inf", "-inf", " 3", "+3"};

} // namespace

TEST(VqadArgs, RejectsBadNumbersForEveryNumericFlag)
{
    const std::vector<std::string> integer_flags = {
        "--tcp", "--workers", "--max-pending", "--quota"};
    std::vector<std::pair<std::string, std::string>> cases;
    for (const std::string &flag : integer_flags) {
        for (const std::string &v : kBadEverywhere)
            cases.emplace_back(flag, v);
        cases.emplace_back(flag, "1.5");
        cases.emplace_back(flag, "1e3");
        cases.emplace_back(flag, "18446744073709551616"); // 2^64
    }
    for (const std::string &v : kBadEverywhere)
        cases.emplace_back("--cell-timeout", v);
    cases.emplace_back("--cell-timeout", "1e400");
    cases.emplace_back("--tcp", "70000");
    cases.emplace_back("--tcp", "65536");

    for (const auto &[flag, value] : cases) {
        SCOPED_TRACE(flag + " '" + value + "'");
        std::string err;
        EXPECT_FALSE(parseVqad({"--socket", "s.sock", flag, value}, &err));
        EXPECT_TRUE(contains(err, "vqad: " + flag)) << err;
        EXPECT_TRUE(contains(err, "usage: vqad")) << err;
    }
    std::string err;
    EXPECT_FALSE(parseVqad({"--socket", "s.sock", "--tcp", "70000"}, &err));
    EXPECT_TRUE(contains(err, "from 0 to 65535, not '70000'")) << err;

    // A worker count past kMaxWorkers parses as a number but fails
    // ServeConfig::validate() inside the parser, naming the limit, so
    // vqad exits 2 before any socket or thread exists.
    const std::string limit = std::to_string(kMaxWorkers);
    for (const std::string over : {std::to_string(kMaxWorkers + 1),
                                   std::string("100000")}) {
        SCOPED_TRACE("--workers " + over);
        EXPECT_FALSE(
            parseVqad({"--socket", "s.sock", "--workers", over}, &err));
        EXPECT_TRUE(contains(err, "vqad: ServeConfig.workers")) << err;
        EXPECT_TRUE(contains(err, "<= " + limit)) << err;
        EXPECT_TRUE(contains(err, "usage: vqad")) << err;
    }
    EXPECT_TRUE(parseVqad({"--socket", "s.sock", "--workers", limit}));

    // So do admission counts past serve::kMaxAdmitted.
    const std::string admitted = std::to_string(serve::kMaxAdmitted);
    const std::string over = std::to_string(serve::kMaxAdmitted + 1);
    const std::vector<std::pair<std::string, std::string>> admission = {
        {"--max-pending", "ServeConfig.max_pending"},
        {"--quota", "ServeConfig.per_client_inflight"}};
    for (const auto &[flag, field] : admission) {
        SCOPED_TRACE(flag + " " + over);
        EXPECT_FALSE(parseVqad({"--socket", "s.sock", flag, over}, &err));
        EXPECT_TRUE(contains(err, "vqad: " + field + ": must be <= " +
                                      admitted))
            << err;
        EXPECT_TRUE(contains(err, "usage: vqad")) << err;
        EXPECT_TRUE(parseVqad({"--socket", "s.sock", flag, admitted}));
    }
}

TEST(VqadArgs, RequiresASocketAndKnownFlags)
{
    std::string err;
    EXPECT_FALSE(parseVqad({}, &err));
    EXPECT_TRUE(contains(err, "--socket")) << err;
    EXPECT_FALSE(parseVqad({"--workers", "2"}));
    EXPECT_FALSE(parseVqad({"--socket", "s.sock", "--threads", "2"}, &err));
    EXPECT_TRUE(contains(err, "'--threads'")) << err;
    EXPECT_FALSE(parseVqad({"--socket", "s.sock", "--workers"}));
    EXPECT_FALSE(parseVqad({"--socket"}));
}

TEST(VqadArgs, AcceptsEveryFlag)
{
    const auto config = parseVqad(
        {"--socket", "s.sock", "--tcp", "65535", "--workers", "0",
         "--max-pending", "7", "--quota", "3", "--cell-timeout", "2.5",
         "--store", "d.store"});
    ASSERT_TRUE(config);
    EXPECT_EQ(config->socket_path, "s.sock");
    EXPECT_EQ(config->tcp_port, 65535);
    EXPECT_EQ(config->workers, 0u);
    EXPECT_EQ(config->max_pending, 7u);
    EXPECT_EQ(config->per_client_inflight, 3u);
    EXPECT_EQ(config->cell_timeout_ms, 2.5);
    EXPECT_EQ(config->store_path, "d.store");
}

TEST(VqacArgs, RejectsBadInflight)
{
    std::vector<std::string> values = kBadEverywhere;
    values.insert(values.end(), {"1.5", "1e3", "18446744073709551616"});
    for (const std::string &value : values) {
        SCOPED_TRACE("'" + value + "'");
        std::string err;
        EXPECT_FALSE(parseVqac({"s.sock", "run", "ablation_rz_cnot_ratio",
                                "--inflight", value},
                               &err));
        EXPECT_TRUE(contains(err, "vqac: --inflight")) << err;
        EXPECT_TRUE(contains(err, "usage: vqac")) << err;
    }
}

TEST(VqacArgs, ParsesCommandsAndRunOptions)
{
    const auto run = parseVqac({"s.sock", "run", "fig15_varsaw", "--mode",
                                "smoke", "--cells", "c.store", "--isolate",
                                "--inflight", "6"});
    ASSERT_TRUE(run);
    EXPECT_EQ(run->socket_path, "s.sock");
    EXPECT_EQ(run->command, "run");
    EXPECT_EQ(run->run.workload, "fig15_varsaw");
    EXPECT_EQ(run->run.mode, "smoke");
    EXPECT_EQ(run->cells_path, "c.store");
    EXPECT_EQ(run->run.isolation, "process");
    EXPECT_EQ(run->run.max_inflight, 6u);

    for (const char *command : {"ping", "stats", "list"})
        EXPECT_TRUE(parseVqac({"s.sock", command})) << command;
    std::string err;
    EXPECT_FALSE(parseVqac({"s.sock", "pong"}, &err));
    EXPECT_TRUE(contains(err, "unknown command 'pong'")) << err;
    EXPECT_FALSE(parseVqac({"s.sock", "run"}, &err));
    EXPECT_TRUE(contains(err, "workload")) << err;
    EXPECT_FALSE(parseVqac({"s.sock"}));
    EXPECT_FALSE(parseVqac({"s.sock", "run", "fig15_varsaw", "--fast"},
                           &err));
    EXPECT_TRUE(contains(err, "'--fast'")) << err;
}

TEST(VqacBinary, BadInflightExitsTwoBeforeConnecting)
{
    // No daemon listens at the socket: a client that connected first
    // would fail there and exit 1, not 2.
    const std::string vqac = std::string(EFTVQA_TOOLS_DIR) + "/vqac";
    if (!std::ifstream(vqac))
        GTEST_SKIP() << "vqac not built";
    const std::string err_path = ::testing::TempDir() + "vqac_inflight.err";
    const std::string cmd = "'" + vqac + "' '" + ::testing::TempDir() +
                            "no_such_vqad.sock' run ablation_rz_cnot_ratio "
                            "--inflight abc 2> '" + err_path + "'";
    const int status = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 2);
    std::ifstream in(err_path);
    std::stringstream err;
    err << in.rdbuf();
    EXPECT_TRUE(contains(err.str(), "--inflight takes a non-negative integer"))
        << err.str();
    std::remove(err_path.c_str());
}
