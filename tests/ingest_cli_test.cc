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
#include <vector>

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

TEST(IngestCliTest, UnknownFlagsAreRejectedBeforeAnyWork) {
  ScratchDir scratch;
  const std::string ck = scratch.path + "/ck";
  struct Case {
    std::string argv;
    std::string flag;
  };
  for (const Case& c : std::vector<Case>{
           {"discover NUMBERS --partitions --json", "partitions"},
           {"discover NUMBERS --sorted-partitions", "sorted-partitions"},
           {"discover NUMBERS --checkpoint " + ck + " --chekpoint-every 1",
            "chekpoint-every"},
           {"run NUMBERS --algo discover --max-level=2 --no-such-flag",
            "no-such-flag"},
           // `run` reads only the flags of the task --algo names.
           {"run NUMBERS --algo fds --max-level=2", "max-level"},
           {"fds NUMBERS --threads 2", "threads"},
           {"qa --iters 100000 --no-simd --no-serv", "no-serv"},
           {"serve --listen 127.0.0.1:0 --executor 2", "executor"},
       }) {
    SCOPED_TRACE(c.argv);
    RunResult run = RunCli(c.argv);
    EXPECT_EQ(run.exit_code, 2) << run.output;
    EXPECT_NE(run.output.find("unknown flag --" + c.flag), std::string::npos)
        << run.output;
  }
  // Rejected before the run: no checkpoint was written.
  EXPECT_FALSE(fs::exists(ck));
}

TEST(IngestCliTest, WorkerArgvShapesAreAccepted) {
  ScratchDir scratch;
  // The argv shapes the serve daemon, the supervisor, the QA harness and
  // the benchmark hand to `ocdd run` / `ocdd apply-batch`.
  for (const std::string& argv : std::vector<std::string>{
           "run NUMBERS --algo discover --json --seed 42",
           "run NUMBERS --algo discover --json --rows 6 --seed 42 "
           "--max-level 3 --time-limit 30 --max-checks 100000 "
           "--memory-limit 64 --checkpoint " + scratch.path + "/ck",
           "run NUMBERS --algo fastod --json --seed 42 --resume "
           "--checkpoint " + scratch.path + "/ck2",
           "apply-batch --state " + scratch.path + "/st --base NUMBERS "
           "--seed 42 --rows 6 --max-level 3 --json --time-limit 30 "
           "--max-checks 100000 --memory-limit 64",
           "supervise NUMBERS --algo fds --checkpoint " + scratch.path +
               "/sup --max-attempts 2 --backoff 0.01",
       }) {
    SCOPED_TRACE(argv);
    RunResult run = RunCli(argv);
    EXPECT_EQ(run.exit_code, 0) << run.output;
    EXPECT_EQ(run.output.find("unknown flag"), std::string::npos)
        << run.output;
  }
}

TEST(IngestCliTest, DiscoverChecksWithPartitionsByDefault) {
  RunResult run = RunCli("discover DBTESMA_1K --json --profile");
  ASSERT_EQ(run.exit_code, 0) << run.output;
  auto doc = report::ParseJson(run.output);
  ASSERT_TRUE(doc.ok()) << run.output;
  double fill_calls = 0;
  double sort_calls = 0;
  for (const report::JsonValue& phase : (*doc)["profile"]["phases"].array()) {
    const std::string name = phase["name"].string_value();
    if (name == "check.fill") fill_calls = phase["calls"].number_value();
    if (name == "check.sort_index") sort_calls = phase["calls"].number_value();
  }
  EXPECT_GT(fill_calls, 0.0) << run.output;
  EXPECT_EQ(sort_calls, 0.0) << run.output;
}

TEST(IngestCliTest, ProfileAttributesTheWallTime) {
  ScratchDir scratch;
  std::string csv = WriteFile(scratch, "clean.csv",
                              "a,b,c\n1,x,0.5\n2,y,0.25\n3,x,0.5\n4,z,1\n");
  RunResult run = RunCli("discover " + csv + " --json --profile");
  ASSERT_EQ(run.exit_code, 0) << run.output;
  auto doc = report::ParseJson(run.output);
  ASSERT_TRUE(doc.ok()) << run.output;
  const report::JsonValue& profile = (*doc)["profile"];
  double ingest_calls = 0;
  double parts = (*doc)["elapsed_seconds"].number_value();
  for (const report::JsonValue& phase : profile["phases"].array()) {
    const std::string name = phase["name"].string_value();
    if (name == "ingest") ingest_calls = phase["calls"].number_value();
    if (name == "ingest" || name == "encode" || name == "serialize") {
      EXPECT_EQ(phase["calls"].number_value(), 1.0) << name;
      parts += phase["seconds"].number_value();
    }
  }
  EXPECT_EQ(ingest_calls, 1.0) << run.output;
  const double wall = profile["wall_seconds"].number_value();
  EXPECT_GT(wall, 0.0) << run.output;
  // Each member is printed to 1 us; the identity holds up to that rounding.
  EXPECT_NEAR(parts + profile["unattributed_seconds"].number_value(), wall,
              1e-5)
      << run.output;

  // The run's own seconds and busy ratio: the phases inside the run over
  // its one thread's seconds.
  const double run_seconds = profile["run_seconds"].number_value();
  EXPECT_NEAR(run_seconds, (*doc)["elapsed_seconds"].number_value(), 1e-6)
      << run.output;
  double run_cpu = 0;
  for (const report::JsonValue& phase : profile["phases"].array()) {
    const std::string name = phase["name"].string_value();
    if (name != "ingest" && name != "encode" && name != "serialize") {
      run_cpu += phase["seconds"].number_value();
    }
  }
  ASSERT_GT(run_seconds, 0.0) << run.output;
  EXPECT_NEAR(profile["busy_ratio"].number_value(), run_cpu / run_seconds,
              0.05)
      << run.output;

  RunResult text = RunCli("discover " + csv + " --profile");
  ASSERT_EQ(text.exit_code, 0) << text.output;
  EXPECT_NE(text.output.find("# profile: unattributed"), std::string::npos)
      << text.output;
  EXPECT_NE(text.output.find("busy_ratio"), std::string::npos) << text.output;
}

TEST(IngestCliTest, DirectorySourceIsATypedIoError) {
  ScratchDir scratch;
  const std::string dir = scratch.path + "/not_a_file.csv";
  fs::create_directories(dir);
  RunResult run = RunCli("discover " + dir + " --json");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("io read failed for " + dir), std::string::npos)
      << run.output;
  EXPECT_EQ(run.output.find("empty_input"), std::string::npos) << run.output;
}

}  // namespace
}  // namespace ocdd
