// The task table (report/tasks.h) drives the CLI's task verbs, `ocdd run
// --algo` and the serve daemon's request check. These tests loop over the
// table, so a new row is covered without a new test.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <regex>
#include <string>

#include "common/string_util.h"
#include "report/json_reader.h"
#include "report/tasks.h"
#include "serve/protocol.h"

namespace ocdd {
namespace {

using report::Task;
using report::Tasks;

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

RunResult RunCli(const std::string& argv_tail) {
  const std::string cmd =
      std::string(OCDD_CLI_PATH) + " " + argv_tail + " 2>&1";
  RunResult result;
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return result;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    result.output.append(buf, n);
  }
  const int status = ::pclose(pipe);
  if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
  return result;
}

/// Text output with the run times ("in 0.012s") masked.
std::string MaskTimes(const std::string& text) {
  static const std::regex kTime("in [0-9]+\\.[0-9]+s");
  return std::regex_replace(text, kTime, "in Xs");
}

TEST(TasksTest, EveryTaskRunsOnNumbers) {
  for (const Task& task : Tasks()) {
    SCOPED_TRACE(task.name);
    RunResult run = RunCli(std::string(task.name) + " NUMBERS");
    EXPECT_EQ(run.exit_code, 0) << run.output;
    EXPECT_FALSE(run.output.empty());
    if (!task.Reads("json")) continue;
    run = RunCli(std::string(task.name) + " NUMBERS --json");
    ASSERT_EQ(run.exit_code, 0) << run.output;
    EXPECT_TRUE(report::ParseJson(run.output).ok()) << run.output;
  }
}

TEST(TasksTest, EveryTaskRejectsAFlagAnotherRowReads) {
  for (const Task& task : Tasks()) {
    SCOPED_TRACE(task.name);
    std::string foreign;
    for (const Task& other : Tasks()) {
      for (const char* group : other.flags) {
        for (const std::string& flag : SplitString(group, ' ')) {
          if (foreign.empty() && !task.Reads(flag)) foreign = flag;
        }
      }
    }
    ASSERT_FALSE(foreign.empty()) << "the row reads every flag of the table";
    const RunResult run =
        RunCli(std::string(task.name) + " NUMBERS --" + foreign + " 1");
    EXPECT_EQ(run.exit_code, 2) << run.output;
    EXPECT_NE(run.output.find("unknown flag --" + foreign), std::string::npos)
        << run.output;
  }
}

TEST(TasksTest, OrderAndFdsReadProfile) {
  for (const char* name : {"order", "fds"}) {
    SCOPED_TRACE(name);
    RunResult run = RunCli(std::string(name) + " NUMBERS --profile");
    EXPECT_EQ(run.exit_code, 0) << run.output;
    EXPECT_NE(run.output.find("# profile: "), std::string::npos)
        << run.output;
    run = RunCli(std::string(name) + " NUMBERS --profile --json");
    ASSERT_EQ(run.exit_code, 0) << run.output;
    auto json = report::ParseJson(run.output);
    ASSERT_TRUE(json.ok()) << run.output;
    EXPECT_EQ((*json)["profile"].kind(), report::JsonValue::Kind::kObject)
        << run.output;
  }
}

TEST(TasksTest, ListWalksReadThreads) {
  // OCDDISCOVER, ORDER and polarized discovery share one walk, which checks
  // and expands on a pool past one thread; the report stays the same.
  for (const char* name : {"discover", "order", "polarized"}) {
    SCOPED_TRACE(name);
    const std::string command = std::string(name) + " LATTICE --rows 400";
    const RunResult one = RunCli(command + " --threads 1");
    const RunResult four = RunCli(command + " --threads 4");
    ASSERT_EQ(one.exit_code, 0) << one.output;
    ASSERT_EQ(four.exit_code, 0) << four.output;
    EXPECT_EQ(MaskTimes(four.output), MaskTimes(one.output));
  }
}

TEST(TasksTest, ProfileTimesARegistrySourcesSynthesis) {
  // Generating LINEITEM's 50,000 rows takes most of the wall time; it is
  // the `synthesize` phase, so little is left unattributed.
  const RunResult run = RunCli("discover LINEITEM --profile --json");
  ASSERT_EQ(run.exit_code, 0) << run.output;
  auto json = report::ParseJson(run.output);
  ASSERT_TRUE(json.ok()) << run.output;
  const report::JsonValue& profile = (*json)["profile"];
  double synthesize = 0.0;
  for (const report::JsonValue& phase : profile["phases"].array()) {
    if (phase["name"].string_value() == "synthesize") {
      synthesize = phase["seconds"].number_value();
    }
  }
  const double wall = profile["wall_seconds"].number_value();
  EXPECT_GT(synthesize, 0.0) << run.output;
  EXPECT_LT(profile["unattributed_seconds"].number_value(), 0.1 * wall)
      << run.output;
}

TEST(TasksTest, RunAndTheDaemonAcceptExactlyTheCheckpointRows) {
  for (const Task& task : Tasks()) {
    SCOPED_TRACE(task.name);
    const bool runnable = task.Reads("checkpoint");
    EXPECT_EQ(report::FindRunnableTask(task.name), runnable ? &task : nullptr);

    const RunResult run =
        RunCli(std::string("run NUMBERS --json --algo ") + task.name);
    EXPECT_EQ(run.exit_code, runnable ? 0 : 2) << run.output;
    EXPECT_EQ(run.output.find("unknown --algo") == std::string::npos,
              runnable)
        << run.output;

    serve::ServeRequest req;
    req.algo = task.name;
    req.source = "NUMBERS";
    EXPECT_EQ(serve::ParseRequest(serve::SerializeRequest(req)).ok(),
              runnable);
    // A runnable row accepts a max_level exactly when it reads one: any
    // other value would only split its cache line.
    req.max_level = 2;
    EXPECT_EQ(serve::ParseRequest(serve::SerializeRequest(req)).ok(),
              runnable && task.Reads("max-level"));
  }
  // Names outside the table, such as the retired `tane` alias, are refused
  // by both, and the message lists the rows.
  const RunResult run = RunCli("run NUMBERS --algo tane");
  EXPECT_EQ(run.exit_code, 2) << run.output;
  EXPECT_NE(run.output.find(report::RunnableTaskNames(", ")),
            std::string::npos)
      << run.output;
  serve::ServeRequest req;
  req.algo = "tane";
  req.source = "NUMBERS";
  EXPECT_FALSE(serve::ParseRequest(serve::SerializeRequest(req)).ok());
}

TEST(TasksTest, LexOnADatasetSourceMatchesItsGeneratedCsv) {
  // LATTICE's integer columns sort differently as text, so a task that
  // ignored --lex on a dataset source would print numeric-order results.
  const std::string csv =
      (std::filesystem::temp_directory_path() /
       ("ocdd_tasks_test_" + std::to_string(::getpid()) + ".csv"))
          .string();
  ASSERT_EQ(RunCli("generate LATTICE --rows 40 --out " + csv).exit_code, 0);
  for (const Task& task : Tasks()) {
    SCOPED_TRACE(task.name);
    const RunResult dataset =
        RunCli(std::string(task.name) + " LATTICE --rows 40 --lex");
    const RunResult file = RunCli(std::string(task.name) + " " + csv +
                                  " --lex");
    ASSERT_EQ(dataset.exit_code, 0) << dataset.output;
    ASSERT_EQ(file.exit_code, 0) << file.output;
    EXPECT_EQ(MaskTimes(dataset.output), MaskTimes(file.output));
  }
  std::filesystem::remove(csv);
}

TEST(TasksTest, BudgetsCapPolarized) {
  // FLIGHT_1K's 109 columns give polarized discovery millions of level-4
  // candidates; either budget ends the run early with a partial result,
  // and the summary line names the budget.
  const struct {
    const char* flags;
    const char* reason;
  } kBudgets[] = {{"--max-checks 2000", "check_budget"},
                  {"--memory-limit 16", "memory_budget"}};
  for (const auto& [budget, reason] : kBudgets) {
    SCOPED_TRACE(budget);
    const auto start = std::chrono::steady_clock::now();
    const RunResult run =
        RunCli(std::string("polarized FLIGHT_1K --rows 60 --max-level 3 ") +
               budget);
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    EXPECT_EQ(run.exit_code, 0) << run.output;
    EXPECT_NE(run.output.find(std::string("(stopped: ") + reason),
              std::string::npos)
        << run.output;
    EXPECT_LT(seconds, 30.0);
  }
}

}  // namespace
}  // namespace ocdd
