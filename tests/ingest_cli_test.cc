// End-to-end coverage of the CSV ingest policy flags on the real CLI
// binary: `--on-bad-row={fail,skip,quarantine}` and `--quarantine FILE`.
// This is the acceptance surface of the hardened untrusted-byte boundary —
// discovery over a malformed CSV must either complete with exact per-code
// rejection counts in the JSON report, or (under the strict default) exit
// nonzero with a structured error naming the byte offset and row.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "report/json_reader.h"

namespace ocdd {
namespace {

namespace fs = std::filesystem;

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr, interleaved
};

/// Runs the CLI with `argv_tail` appended after the binary path; captures
/// combined stdout/stderr and the exit code.
RunResult RunCli(const std::string& argv_tail) {
  std::string cmd = std::string(OCDD_CLI_PATH) + " " + argv_tail + " 2>&1";
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

/// Scratch dir for the malformed CSV and the quarantine file.
struct ScratchDir {
  ScratchDir() {
    path = (fs::temp_directory_path() /
            ("ocdd_ingest_cli_test_" + std::to_string(::getpid())))
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

std::string WriteFile(const ScratchDir& scratch, const std::string& name,
                      const std::string& content) {
  std::string path = scratch.path + "/" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  return path;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Two malformed data records among four good ones: a ragged row (1 field
// instead of 2) and a row with a quote opened and never closed.
constexpr char kDirtyCsv[] =
    "a,b\n"
    "1,x\n"
    "2\n"
    "3,z\n"
    "broken,\"unterminated\n"
    "4,w\n";

TEST(IngestCliTest, QuarantineRunCompletesWithExactPerCodeCounts) {
  ScratchDir scratch;
  std::string csv = WriteFile(scratch, "dirty.csv", kDirtyCsv);
  std::string quarantine = scratch.path + "/quarantine.txt";

  RunResult run = RunCli("discover " + csv +
                         " --on-bad-row quarantine --quarantine " +
                         quarantine + " --json");
  ASSERT_EQ(run.exit_code, 0) << run.output;

  auto doc = report::ParseJson(run.output);
  ASSERT_TRUE(doc.ok()) << run.output;
  const report::JsonValue& report = *doc;
  EXPECT_EQ(report["completed"].bool_value(), true);
  EXPECT_EQ(report["num_rows"].number_value(), 3.0);

  const report::JsonValue& ingest = report["ingest"];
  ASSERT_FALSE(ingest.is_null()) << run.output;
  EXPECT_EQ(ingest["records_total"].number_value(), 5.0);
  EXPECT_EQ(ingest["rows_ingested"].number_value(), 3.0);
  EXPECT_EQ(ingest["rows_rejected"].number_value(), 2.0);
  EXPECT_EQ(ingest["rejected_by_code"]["ragged_row"].number_value(), 1.0);
  EXPECT_EQ(ingest["rejected_by_code"]["unterminated_quote"].number_value(),
            1.0);
  EXPECT_EQ(ingest["quarantine_path"].string_value(), quarantine);

  // The rejection count is also mirrored into stop_state, where the
  // supervisor and post-mortem triage look.
  EXPECT_EQ(report["stop_state"]["ingest_rejected"].number_value(), 2.0);

  // The quarantine file preserves the raw rejected bytes, one row per line.
  EXPECT_EQ(ReadFile(quarantine), "2\nbroken,\"unterminated\n");
}

TEST(IngestCliTest, SkipPolicyCountsWithoutQuarantineFile) {
  ScratchDir scratch;
  std::string csv = WriteFile(scratch, "dirty.csv", kDirtyCsv);

  RunResult run = RunCli("fastod " + csv + " --on-bad-row=skip --json");
  ASSERT_EQ(run.exit_code, 0) << run.output;

  auto doc = report::ParseJson(run.output);
  ASSERT_TRUE(doc.ok()) << run.output;
  const report::JsonValue& ingest = (*doc)["ingest"];
  EXPECT_EQ(ingest["rows_rejected"].number_value(), 2.0);
  EXPECT_TRUE(ingest["quarantine_path"].is_null());
}

TEST(IngestCliTest, FailPolicyExitsNonzeroNamingByteOffsetAndRow) {
  ScratchDir scratch;
  std::string csv = WriteFile(scratch, "dirty.csv", kDirtyCsv);

  // Strict failure is the default — no flag needed.
  RunResult run = RunCli("discover " + csv + " --json");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  // The structured IngestError rendering: code, byte offset, 1-based row
  // (header is row 1, so the ragged record "2" is row 3 at byte 8).
  EXPECT_NE(run.output.find("ragged_row"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("byte 8"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("row 3"), std::string::npos) << run.output;
}

TEST(IngestCliTest, MalformedFlagValuesAreRejected) {
  ScratchDir scratch;
  std::string csv = WriteFile(scratch, "dirty.csv", kDirtyCsv);
  RunResult run = RunCli("discover " + csv + " --on-bad-row=purge --json");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("unknown --on-bad-row"), std::string::npos)
      << run.output;

  // A malformed number is a usage error naming the flag, never a silent 0
  // ("unlimited").
  for (const char* flags :
       {"--max-checks abc", "--threads -1", "--threads=-1", "--time-limit 1x",
        "--max-checks"}) {
    SCOPED_TRACE(flags);
    RunResult bad = RunCli(std::string("discover NUMBERS --json ") + flags);
    EXPECT_EQ(bad.exit_code, 2) << bad.output;
    const std::string flag = std::string(flags).substr(
        0, std::string(flags).find_first_of(" ="));
    EXPECT_NE(bad.output.find(flag + " expects"), std::string::npos)
        << bad.output;
  }
}

TEST(IngestCliTest, CleanCsvReportsCleanIngest) {
  ScratchDir scratch;
  std::string csv = WriteFile(scratch, "clean.csv", "a,b\n1,x\n2,y\n");
  RunResult run = RunCli("discover " + csv + " --json");
  ASSERT_EQ(run.exit_code, 0) << run.output;
  auto doc = report::ParseJson(run.output);
  ASSERT_TRUE(doc.ok()) << run.output;
  const report::JsonValue& ingest = (*doc)["ingest"];
  ASSERT_FALSE(ingest.is_null()) << run.output;
  EXPECT_EQ(ingest["records_total"].number_value(), 2.0);
  EXPECT_EQ(ingest["rows_rejected"].number_value(), 0.0);
  EXPECT_EQ((*doc)["stop_state"]["ingest_rejected"].number_value(), 0.0);
}

TEST(IngestCliTest, RejectedRowsChargeTheCheckBudget) {
  ScratchDir scratch;
  // Three bad rows against a budget of 2: the ingest layer must trip the
  // budget before the discovery run even starts.
  std::string csv = WriteFile(scratch, "mostly_bad.csv",
                              "a,b\n1\n2\n3\n4,x\n");
  RunResult run =
      RunCli("discover " + csv + " --on-bad-row=skip --max-checks 2 --json");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("ingest stopped after"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("check_budget"), std::string::npos) << run.output;
}

TEST(IngestCliTest, DatasetSourcesHaveNoIngestMember) {
  RunResult run = RunCli("discover YES --json");
  ASSERT_EQ(run.exit_code, 0) << run.output;
  auto doc = report::ParseJson(run.output);
  ASSERT_TRUE(doc.ok()) << run.output;
  EXPECT_TRUE((*doc)["ingest"].is_null()) << run.output;
}

}  // namespace
}  // namespace ocdd
