// Fault-matrix coverage of `ocdd apply-batch` on the real CLI binary — the
// process-level face of incremental maintenance (docs/incremental.md).
// Every scenario here crosses a process boundary on purpose: warm state
// must survive exits, SIGKILL mid-apply must be recoverable through the
// client replay protocol, torn and fully corrupt snapshots must degrade
// rather than error, and budget-stopped walks must commit sound partial
// state a follow-up invocation can finish.

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "relation/batch.h"
#include "relation/csv.h"
#include "report/json_reader.h"

namespace ocdd {
namespace {

namespace fs = std::filesystem;

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr, interleaved
};

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

struct ScratchDir {
  explicit ScratchDir(const std::string& tag) {
    path = (fs::temp_directory_path() /
            ("ocdd_inc_cli_" + tag + "_" + std::to_string(::getpid())))
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

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  ASSERT_TRUE(out.good()) << path;
}

/// A small base relation with real structure: d = a coarsened, c constant.
std::string BaseCsv() {
  std::string csv = "a,b,c,d\n";
  for (int r = 0; r < 30; ++r) {
    csv += std::to_string(r) + "," + std::to_string((r * 7) % 5) + ",1," +
           std::to_string(r / 3) + "\n";
  }
  return csv;
}

report::JsonValue ParseJsonOrDie(const std::string& text) {
  auto doc = report::ParseJson(text);
  EXPECT_TRUE(doc.ok()) << text;
  return doc.ok() ? *doc : report::JsonValue();
}

std::string ClaimsOf(const report::JsonValue& report_doc) {
  return report::SerializeJson(report_doc["ocds"]) + "|" +
         report::SerializeJson(report_doc["ods"]);
}

/// Claims from an `ocdd run --json` of `csv_path` — the from-scratch oracle.
std::string FromScratchClaims(const std::string& csv_path) {
  RunResult run = RunCli("run " + csv_path + " --json");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  return ClaimsOf(ParseJsonOrDie(run.output));
}

TEST(IncrementalCliTest, WarmStateCarriesAcrossProcessesAndMatchesScratch) {
  ScratchDir dir("cold");
  const std::string base = dir.path + "/base.csv";
  const std::string state = dir.path + "/state";
  WriteFile(base, BaseCsv());
  WriteFile(dir.path + "/b1.batch",
            "ocdd-batch 1\n- 3\n- 17\n+ 100,0,1,0\n+ 101,1,1,33\n");
  WriteFile(dir.path + "/b2.batch",
            "ocdd-batch 1\n+ 0,0,1,0\n+ ,,,\n- 0\n");  // dup row + all-NULL

  // Bootstrap (no batch): builds generation 0 from the base source.
  RunResult boot =
      RunCli("apply-batch --state " + state + " --base " + base + " --json");
  ASSERT_EQ(boot.exit_code, 0) << boot.output;
  auto boot_doc = ParseJsonOrDie(boot.output);
  EXPECT_EQ(boot_doc["applied"].bool_value(), false);
  EXPECT_EQ(boot_doc["batch_seq"].number_value(), 0);
  EXPECT_EQ(boot_doc["resumed"].bool_value(), false);

  // Two batches, each in its own process: the warm state must flow through
  // the snapshot files, not process memory.
  RunResult b1 = RunCli("apply-batch " + dir.path + "/b1.batch --state " +
                        state + " --json");
  ASSERT_EQ(b1.exit_code, 0) << b1.output;
  auto b1_doc = ParseJsonOrDie(b1.output);
  EXPECT_EQ(b1_doc["batch_seq"].number_value(), 1);
  EXPECT_EQ(b1_doc["resumed"].bool_value(), true);
  EXPECT_EQ(b1_doc["snapshot_written"].bool_value(), true);

  RunResult b2 = RunCli("apply-batch " + dir.path + "/b2.batch --state " +
                        state + " --json");
  ASSERT_EQ(b2.exit_code, 0) << b2.output;
  auto b2_doc = ParseJsonOrDie(b2.output);
  EXPECT_EQ(b2_doc["batch_seq"].number_value(), 2);
  EXPECT_EQ(b2_doc["num_rows"].number_value(), 30 - 2 + 2 - 1 + 2);

  // Materialize the same final relation directly and compare claims with a
  // from-scratch `ocdd run` — the equivalence contract, across processes.
  auto rel = rel::ReadCsvString(BaseCsv());
  ASSERT_TRUE(rel.ok());
  rel::Relation cur = std::move(*rel);
  for (const char* name : {"/b1.batch", "/b2.batch"}) {
    std::ifstream in(dir.path + name, std::ios::binary);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    auto parsed = rel::ParseBatchText(text, cur.schema());
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    auto next = rel::ApplyBatch(cur, parsed->batch);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    cur = std::move(*next);
  }
  const std::string final_csv = dir.path + "/final.csv";
  ASSERT_TRUE(rel::WriteCsvFile(cur, final_csv).ok());
  EXPECT_EQ(ClaimsOf(b2_doc["report"]), FromScratchClaims(final_csv));

  // apply-batch reads no --perm-cache-mib; like any unknown flag it is a
  // usage error.
  EXPECT_EQ(RunCli("apply-batch --state " + state + " --perm-cache-mib 4")
                .exit_code,
            2);
}

TEST(IncrementalCliTest, BatchlessReopenReportsTheColumnReduction) {
  // FLIGHT_1K reduces to 14 constants and one equivalence class; a
  // batchless reopen of the warm state must report the same reduction as
  // the bootstrap that wrote it.
  ScratchDir dir("reduction");
  const std::string state = dir.path + "/state";
  RunResult boot =
      RunCli("apply-batch --state " + state + " --base FLIGHT_1K --json");
  ASSERT_EQ(boot.exit_code, 0) << boot.output;
  const report::JsonValue boot_doc = ParseJsonOrDie(boot.output);
  const report::JsonValue& reduction = boot_doc["report"]["reduction"];
  EXPECT_EQ(reduction["constants"].array().size(), 14u);
  ASSERT_EQ(reduction["equivalence_classes"].array().size(), 1u);
  EXPECT_EQ(report::SerializeJson(reduction["equivalence_classes"]),
            R"([["id0","id1","id2","id6","id7","id8","id9"]])");

  RunResult reopen = RunCli("apply-batch --state " + state + " --json");
  ASSERT_EQ(reopen.exit_code, 0) << reopen.output;
  const report::JsonValue reopen_doc = ParseJsonOrDie(reopen.output);
  EXPECT_TRUE(reopen_doc["resumed"].bool_value());
  EXPECT_EQ(report::SerializeJson(reopen_doc["report"]["reduction"]),
            report::SerializeJson(reduction));
}

TEST(IncrementalCliTest, SigkillMidApplyThenClientReplayConverges) {
  ScratchDir dir("kill");
  const std::string base = dir.path + "/base.csv";
  const std::string state = dir.path + "/state";
  const std::string batch = dir.path + "/b1.batch";
  WriteFile(base, BaseCsv());
  // A batch heavy enough that its walk takes real time: many fresh rows.
  std::string text = "ocdd-batch 1\n- 1\n- 2\n";
  for (int r = 0; r < 120; ++r) {
    text += "+ " + std::to_string(1000 + r) + "," + std::to_string(r % 3) +
            ",1," + std::to_string(r % 11) + "\n";
  }
  WriteFile(batch, text);

  RunResult boot =
      RunCli("apply-batch --state " + state + " --base " + base + " --json");
  ASSERT_EQ(boot.exit_code, 0) << boot.output;

  // Uninterrupted reference in a second state directory.
  const std::string ref_state = dir.path + "/ref_state";
  ASSERT_EQ(RunCli("apply-batch --state " + ref_state + " --base " + base +
                   " --json")
                .exit_code,
            0);
  RunResult ref = RunCli("apply-batch " + batch + " --state " + ref_state +
                         " --json");
  ASSERT_EQ(ref.exit_code, 0) << ref.output;
  auto ref_doc = ParseJsonOrDie(ref.output);

  // Launch the apply in the background and SIGKILL it. The kill may land
  // before, during, or after the walk — the client replay protocol below
  // must converge in every case, which is exactly the contract.
  std::string cmd = std::string(OCDD_CLI_PATH) + " apply-batch " + batch +
                    " --state " + state + " --json >/dev/null 2>&1 & echo $!";
  FILE* pipe = ::popen(cmd.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  long pid = 0;
  ASSERT_EQ(std::fscanf(pipe, "%ld", &pid), 1);
  ::pclose(pipe);
  ::usleep(20000);
  ::kill(static_cast<pid_t>(pid), SIGKILL);
  for (int i = 0; i < 500 && ::kill(static_cast<pid_t>(pid), 0) == 0; ++i) {
    ::usleep(10000);  // orphan is reaped by init once the KILL lands
  }

  // Client replay protocol: open the state (any torn newest generation is
  // skipped), consult batch_seq, and re-apply only if the batch is missing.
  RunResult probe = RunCli("apply-batch --state " + state + " --json");
  ASSERT_EQ(probe.exit_code, 0) << probe.output;
  auto probe_doc = ParseJsonOrDie(probe.output);
  EXPECT_EQ(probe_doc["resumed"].bool_value(), true);
  double seq = probe_doc["batch_seq"].number_value();
  ASSERT_TRUE(seq == 0 || seq == 1) << probe.output;
  std::string final_claims;
  if (seq == 0) {
    RunResult replay =
        RunCli("apply-batch " + batch + " --state " + state + " --json");
    ASSERT_EQ(replay.exit_code, 0) << replay.output;
    auto replay_doc = ParseJsonOrDie(replay.output);
    EXPECT_EQ(replay_doc["batch_seq"].number_value(), 1);
    final_claims = ClaimsOf(replay_doc["report"]);
  } else {
    final_claims = ClaimsOf(probe_doc["report"]);
  }
  EXPECT_EQ(final_claims, ClaimsOf(ref_doc["report"]));
}

/// Truncates the newest warm-state generation, simulating a crash torn
/// mid-write (the store's atomic rename makes this near-impossible for real
/// crashes, but disk-level corruption produces the same picture).
void TearNewestGeneration(const std::string& state_dir) {
  fs::path newest;
  std::uint64_t newest_gen = 0;
  for (const auto& entry : fs::directory_iterator(state_dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() < 6 || name.substr(name.size() - 5) != ".snap") continue;
    std::size_t dot1 = name.find('.');
    std::uint64_t gen = std::strtoull(name.c_str() + dot1 + 1, nullptr, 10);
    if (newest.empty() || gen >= newest_gen) {
      newest = entry.path();
      newest_gen = gen;
    }
  }
  ASSERT_FALSE(newest.empty());
  std::error_code ec;
  fs::resize_file(newest, fs::file_size(newest) / 2, ec);
  ASSERT_FALSE(ec);
}

TEST(IncrementalCliTest, TornNewestGenerationFallsBackAndReplays) {
  ScratchDir dir("torn");
  const std::string base = dir.path + "/base.csv";
  const std::string state = dir.path + "/state";
  const std::string batch = dir.path + "/b1.batch";
  WriteFile(base, BaseCsv());
  WriteFile(batch, "ocdd-batch 1\n- 5\n+ 200,2,1,9\n");

  ASSERT_EQ(RunCli("apply-batch --state " + state + " --base " + base +
                   " --json")
                .exit_code,
            0);
  RunResult first = RunCli("apply-batch " + batch + " --state " + state +
                           " --json");
  ASSERT_EQ(first.exit_code, 0) << first.output;
  auto first_doc = ParseJsonOrDie(first.output);
  ASSERT_EQ(first_doc["batch_seq"].number_value(), 1);

  TearNewestGeneration(state);

  // The torn generation is skipped, batch_seq regresses to 0 — degradation,
  // not an error. The client sees the regression and replays.
  RunResult probe = RunCli("apply-batch --state " + state + " --json");
  ASSERT_EQ(probe.exit_code, 0) << probe.output;
  auto probe_doc = ParseJsonOrDie(probe.output);
  EXPECT_EQ(probe_doc["batch_seq"].number_value(), 0);
  EXPECT_EQ(probe_doc["resumed"].bool_value(), true);

  RunResult replay =
      RunCli("apply-batch " + batch + " --state " + state + " --json");
  ASSERT_EQ(replay.exit_code, 0) << replay.output;
  auto replay_doc = ParseJsonOrDie(replay.output);
  EXPECT_EQ(replay_doc["batch_seq"].number_value(), 1);
  EXPECT_EQ(ClaimsOf(replay_doc["report"]), ClaimsOf(first_doc["report"]));
}

TEST(IncrementalCliTest, FullyCorruptStateDegradesToFromScratch) {
  ScratchDir dir("corrupt");
  const std::string base = dir.path + "/base.csv";
  const std::string state = dir.path + "/state";
  WriteFile(base, BaseCsv());

  ASSERT_EQ(RunCli("apply-batch --state " + state + " --base " + base +
                   " --json")
                .exit_code,
            0);
  for (const auto& entry : fs::directory_iterator(state)) {
    WriteFile(entry.path().string(), "definitely not a snapshot");
  }

  // With a base loader: degrade to a from-scratch bootstrap with a warning.
  RunResult degraded =
      RunCli("apply-batch --state " + state + " --base " + base + " --json");
  ASSERT_EQ(degraded.exit_code, 0) << degraded.output;
  auto doc = ParseJsonOrDie(degraded.output);
  EXPECT_EQ(doc["resumed"].bool_value(), false);
  EXPECT_NE(doc["open_warning"].string_value().find("rebuilt from scratch"),
            std::string::npos)
      << degraded.output;
  EXPECT_EQ(ClaimsOf(doc["report"]), FromScratchClaims(base));

  // Without a base loader there is nothing to degrade to: a typed error.
  for (const auto& entry : fs::directory_iterator(state)) {
    WriteFile(entry.path().string(), "definitely not a snapshot");
  }
  RunResult stuck = RunCli("apply-batch --state " + state + " --json");
  EXPECT_EQ(stuck.exit_code, 1) << stuck.output;
}

TEST(IncrementalCliTest, CheckBudgetStopsWalkAndFollowUpConverges) {
  ScratchDir dir("budget");
  const std::string base = dir.path + "/base.csv";
  const std::string state = dir.path + "/state";
  WriteFile(base, BaseCsv());
  WriteFile(dir.path + "/empty.batch", "ocdd-batch 1\n");

  // Budget-starved bootstrap: exit 0 (a truncated answer is an answer), the
  // report says why it stopped, and the partial warm state is committed.
  RunResult starved = RunCli("apply-batch --state " + state + " --base " +
                             base + " --max-checks 3 --json");
  ASSERT_EQ(starved.exit_code, 0) << starved.output;
  auto starved_doc = ParseJsonOrDie(starved.output);
  EXPECT_EQ(starved_doc["report"]["completed"].bool_value(), false);
  EXPECT_EQ(starved_doc["report"]["stop_reason"].string_value(),
            "check_budget");

  // An unbudgeted empty batch finishes the lattice from the partial state
  // and must land exactly on the from-scratch claims.
  RunResult finish = RunCli("apply-batch " + dir.path +
                            "/empty.batch --state " + state + " --json");
  ASSERT_EQ(finish.exit_code, 0) << finish.output;
  auto finish_doc = ParseJsonOrDie(finish.output);
  EXPECT_EQ(finish_doc["report"]["completed"].bool_value(), true);
  EXPECT_EQ(ClaimsOf(finish_doc["report"]), FromScratchClaims(base));
}

TEST(IncrementalCliTest, BadBatchRowsFollowIngestPolicy) {
  ScratchDir dir("policy");
  const std::string base = dir.path + "/base.csv";
  const std::string state = dir.path + "/state";
  const std::string batch = dir.path + "/dirty.batch";
  WriteFile(base, BaseCsv());
  WriteFile(batch,
            "ocdd-batch 1\n+ 300,1,1,2\n* not an op\n+ notanint,1,1,2\n- 4\n");

  ASSERT_EQ(RunCli("apply-batch --state " + state + " --base " + base +
                   " --json")
                .exit_code,
            0);

  // Strict default: a structured ingest error, nonzero exit, state intact.
  RunResult strict =
      RunCli("apply-batch " + batch + " --state " + state + " --json");
  EXPECT_EQ(strict.exit_code, 1) << strict.output;
  EXPECT_NE(strict.output.find("ingest error ["), std::string::npos)
      << strict.output;

  // Quarantine: malformed ops are counted and dropped, the rest applies.
  RunResult loose = RunCli("apply-batch " + batch + " --state " + state +
                           " --on-bad-row quarantine --json");
  ASSERT_EQ(loose.exit_code, 0) << loose.output;
  auto doc = ParseJsonOrDie(loose.output);
  EXPECT_EQ(doc["applied"].bool_value(), true);
  EXPECT_EQ(doc["ingest"]["rows_rejected"].number_value(), 2);
  EXPECT_EQ(doc["ingest"]["ops_parsed"].number_value(), 2);
  EXPECT_EQ(doc["batch_seq"].number_value(), 1);
  EXPECT_EQ(doc["num_rows"].number_value(), 30 - 1 + 1);
}

}  // namespace
}  // namespace ocdd
