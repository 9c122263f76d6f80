// End-to-end coverage of the `ocdd fsck` verb on the real CLI binary
// (docs/robustness.md, "ocdd fsck"): exit code 0 on a clean store, 9 when
// problems are found, text and --json renderings, --repair quarantining, and
// the OCDD_IO_FAULTS environment hook — the same fault grammar the tests arm
// in-process works across an exec boundary.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/snapshot.h"
#include "report/json_reader.h"

namespace ocdd {
namespace {

namespace fs = std::filesystem;

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr, interleaved
};

/// Runs the CLI with `argv_tail` appended after the binary path; captures
/// combined stdout/stderr and the exit code. `env_prefix` (e.g.
/// "OCDD_IO_FAULTS=... ") is prepended to the command for the fault hook.
RunResult RunCli(const std::string& argv_tail,
                 const std::string& env_prefix = "") {
  std::string cmd =
      env_prefix + std::string(OCDD_CLI_PATH) + " " + argv_tail + " 2>&1";
  RunResult result;
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return result;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    result.output.append(buf, n);
  }
  int status = ::pclose(pipe);
  if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
  return result;
}

struct ScratchDir {
  explicit ScratchDir(const std::string& tag) {
    path = (fs::temp_directory_path() /
            ("ocdd_fsck_cli_test_" + tag + "_" + std::to_string(::getpid())))
               .string();
    std::error_code ec;
    fs::remove_all(path, ec);
    fs::create_directories(path, ec);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

void FillStore(const std::string& dir, const std::string& name,
               int generations) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  SnapshotStore store(dir, name);
  for (int i = 0; i < generations; ++i) {
    auto gen = store.Write(
        [&] {
          SnapshotBuilder builder;
          builder.AddSection("data", "gen " + std::to_string(i));
          return builder.Encode();
        }(),
        /*keep=*/16);
    ASSERT_TRUE(gen.ok()) << gen.status().ToString();
  }
}

void CorruptFile(const std::string& path) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  f.seekg(0, std::ios::end);
  const std::streamoff size = f.tellg();
  ASSERT_GT(size, 0);
  f.seekg(size / 2);
  const int byte = f.get();
  f.seekp(size / 2);
  f.put(static_cast<char>(byte ^ 0x5A));
}

TEST(FsckCliTest, CleanStoreExitsZeroProblemsExitNine) {
  ScratchDir scratch("exitcodes");
  FillStore(scratch.path, "store", 2);

  RunResult clean = RunCli("fsck " + scratch.path);
  EXPECT_EQ(clean.exit_code, 0) << clean.output;
  EXPECT_NE(clean.output.find("2 valid"), std::string::npos) << clean.output;

  CorruptFile(scratch.path + "/store.000002.snap");
  RunResult dirty = RunCli("fsck " + scratch.path);
  EXPECT_EQ(dirty.exit_code, 9) << dirty.output;
  EXPECT_NE(dirty.output.find("corrupt"), std::string::npos) << dirty.output;
  EXPECT_NE(dirty.output.find("store.000002.snap"), std::string::npos)
      << dirty.output;

  RunResult missing = RunCli("fsck " + scratch.path + "/no-such-subdir");
  EXPECT_EQ(missing.exit_code, 1) << missing.output;
}

TEST(FsckCliTest, JsonReportParsesAndCarriesCounters) {
  ScratchDir scratch("json");
  FillStore(scratch.path, "store", 2);
  CorruptFile(scratch.path + "/store.000001.snap");
  std::ofstream(scratch.path + "/store.tmp") << "partial";

  RunResult run = RunCli("fsck " + scratch.path + " --json");
  EXPECT_EQ(run.exit_code, 9) << run.output;
  auto doc = report::ParseJson(run.output);
  ASSERT_TRUE(doc.ok()) << run.output;
  EXPECT_EQ((*doc)["command"].string_value(), "fsck");
  EXPECT_EQ((*doc)["valid_files"].number_value(), 1.0);
  EXPECT_EQ((*doc)["corrupt_files"].number_value(), 1.0);
  EXPECT_EQ((*doc)["orphan_tmp_files"].number_value(), 1.0);
  EXPECT_EQ((*doc)["clean"].bool_value(), false);
}

TEST(FsckCliTest, RepairThenRescanIsClean) {
  ScratchDir scratch("repair");
  FillStore(scratch.path, "store", 3);
  CorruptFile(scratch.path + "/store.000003.snap");
  std::ofstream(scratch.path + "/store.tmp") << "partial";

  RunResult repair = RunCli("fsck " + scratch.path + " --repair");
  EXPECT_EQ(repair.exit_code, 0) << repair.output;
  EXPECT_TRUE(
      fs::exists(scratch.path + "/fsck-quarantine/store.000003.snap"));
  EXPECT_FALSE(fs::exists(scratch.path + "/store.tmp"));

  RunResult rescan = RunCli("fsck " + scratch.path);
  EXPECT_EQ(rescan.exit_code, 0) << rescan.output;
}

TEST(FsckCliTest, FaultEnvHookCrossesTheExecBoundary) {
  ScratchDir scratch("envhook");
  FillStore(scratch.path, "store", 1);
  CorruptFile(scratch.path + "/store.000001.snap");

  // The repair rename fails in the child via OCDD_IO_FAULTS: the CLI must
  // report the problem unrepaired (exit 9 with a warning), not crash.
  RunResult run = RunCli("fsck " + scratch.path + " --repair",
                         "OCDD_IO_FAULTS='fsck.quarantine.*=eio' ");
  EXPECT_EQ(run.exit_code, 9) << run.output;
  EXPECT_NE(run.output.find("warning"), std::string::npos) << run.output;
  EXPECT_TRUE(fs::exists(scratch.path + "/store.000001.snap"));

  // Run kinds cross the same hook: a throw at the 5th of NUMBERS' 37
  // checks stops discovery with a partial, well-formed report.
  RunResult faulted = RunCli("discover NUMBERS --json",
                             "OCDD_IO_FAULTS='ocd.check=throw#5' ");
  EXPECT_EQ(faulted.exit_code, 0) << faulted.output;
  auto doc = report::ParseJson(faulted.output);
  ASSERT_TRUE(doc.ok()) << faulted.output;
  EXPECT_FALSE((*doc)["completed"].bool_value());
  EXPECT_EQ((*doc)["stop_reason"].string_value(), "fault_injected");

  // A malformed spec is refused loudly at startup, never half-applied.
  RunResult bad = RunCli("fsck " + scratch.path,
                         "OCDD_IO_FAULTS='store=warpdrive' ");
  EXPECT_NE(bad.exit_code, 0) << bad.output;
}

}  // namespace
}  // namespace ocdd
