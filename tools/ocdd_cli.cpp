// ocdd — command-line data profiler around the library.
//
//   ocdd <task>   <source> [flags]   one verb per row of the task table
//                                    (report/tasks.h): discover, fds, ...
//   ocdd run      <source> --algo <task> [--checkpoint DIR] [flags]
//   ocdd profile  <source>
//   ocdd rewrite  <source> --order-by col1,col2,...
//   ocdd generate <dataset> [--rows N] [--seed S] [--out file.csv]
//   ocdd qa       [--seed S] [--iters K] [--inject MODE] [--json]
//                 [--repro-dir DIR]
//
// <source> is either a CSV file path (anything ending in .csv) or the name
// of a built-in synthetic dataset (see `ocdd generate` / DESIGN.md §2).
//
// CSV sources go through the hardened ingest boundary: `--on-bad-row
// fail|skip|quarantine` picks what happens to malformed data rows, and
// `--quarantine FILE` preserves the rejected raw bytes for triage. Exact
// per-error-code rejection counts are emitted under `"ingest"` in `--json`
// reports (see docs/robustness.md).
//
// Every task that reads them honors `--time-limit SEC`, `--memory-limit
// MIB` and `--max-checks N` (see docs/robustness.md), and Ctrl-C (SIGINT): the
// first signal requests cooperative cancellation, the run drains, and the
// partial results are printed with `"completed":false` and a stop reason —
// exit status stays 0 because a truncated answer is still an answer.

#include <unistd.h>

#include <atomic>
#include <cctype>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "algo/incremental/incremental.h"
#include "common/fsck.h"
#include "common/prof.h"
#include "common/run_context.h"
#include "common/string_util.h"
#include "core/entropy.h"
#include "core/ocd_discover.h"
#include "common/snapshot.h"
#include "datagen/registry.h"
#include "engine/executor.h"
#include "engine/supervisor.h"
#include "optimizer/order_by_rewrite.h"
#include "qa/harness.h"
#include "relation/batch.h"
#include "relation/csv.h"
#include "report/json_reader.h"
#include "report/json_writer.h"
#include "report/tasks.h"
#include "serve/client.h"
#include "serve/server.h"

namespace {

using ocdd::Result;
using ocdd::Status;

/// Shared by every discovery command; SIGINT cancels it (Cancel() is
/// async-signal-safe — a single atomic store).
ocdd::RunContext g_run_context;

/// First SIGINT: cooperative cancellation — the run drains (writing a final
/// checkpoint when one is configured) and prints partial results. Second
/// SIGINT: the user wants out *now*; `_exit` (async-signal-safe) with the
/// conventional 128+SIGINT status. See docs/robustness.md for the exit-code
/// table.
std::atomic<int> g_sigint_count{0};

extern "C" void HandleSigint(int) {
  if (g_sigint_count.fetch_add(1, std::memory_order_relaxed) == 0) {
    g_run_context.Cancel();
  } else {
    _exit(130);
  }
}

/// A numeric flag whose value does not parse; main() reports it and exits 2.
struct BadFlag : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Args {
  std::string command;
  std::string source;
  std::map<std::string, std::string> flags;

  bool Has(const std::string& name) const { return flags.count(name) > 0; }
  std::string Get(const std::string& name, const std::string& dflt) const {
    auto it = flags.find(name);
    return it == flags.end() ? dflt : it->second;
  }
  /// Non-negative finite number; anything else throws BadFlag.
  double GetDouble(const std::string& name, double dflt) const {
    auto it = flags.find(name);
    if (it == flags.end()) return dflt;
    const std::string& v = it->second;
    char* end = nullptr;
    const double d = std::strtod(v.c_str(), &end);
    if (v.empty() || *end != '\0' || !std::isfinite(d) || d < 0.0) {
      throw BadFlag("--" + name + " expects a non-negative number, got '" +
                    v + "'");
    }
    return d;
  }
  std::size_t GetSize(const std::string& name, std::size_t dflt) const {
    return static_cast<std::size_t>(GetU64(name, dflt));
  }
  /// Full-range uint64 parse — qa replay seeds routinely exceed int64.
  /// Digits only; anything else throws BadFlag.
  std::uint64_t GetU64(const std::string& name, std::uint64_t dflt) const {
    auto it = flags.find(name);
    if (it == flags.end()) return dflt;
    const std::string& v = it->second;
    std::uint64_t n = 0;
    const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), n);
    if (v.empty() || ec != std::errc() || end != v.data() + v.size()) {
      throw BadFlag("--" + name + " expects a non-negative integer, got '" +
                    v + "'");
    }
    return n;
  }
};

// Flag groups several verbs share; the task table holds the rest.
constexpr const char* kSourceFlags = "rows seed lex on-bad-row quarantine";
using ocdd::report::kBudgetFlags;
constexpr const char* kSuperviseFlags =
    "max-attempts backoff backoff-multiplier max-backoff no-progress-limit";

Result<Args> ParseArgs(int argc, char** argv) {
  if (argc < 2) return Status::InvalidArgument("missing command");
  Args args;
  args.command = argv[1];
  int i = 2;
  if (i < argc && argv[i][0] != '-') args.source = argv[i++];
  while (i < argc) {
    std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0) {
      return Status::InvalidArgument("unexpected argument: " + flag);
    }
    flag = flag.substr(2);
    std::string value = "true";
    std::size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      // --flag=value spelling.
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (i + 1 < argc &&
               (argv[i + 1][0] != '-' ||
                std::isdigit(static_cast<unsigned char>(argv[i + 1][1])))) {
      // A negative number is a value (which GetSize rejects by name).
      value = argv[++i];
    }
    args.flags[flag] = value;
    ++i;
  }
  return args;
}

/// Budgets shared by all discovery commands. `--time-limit` is armed
/// separately, right before the algorithm starts, so loading stays outside
/// the deadline. Without `--memory-limit` the run gets half of the smaller
/// of the cgroup memory limit and the host's RAM, so no walk takes the
/// whole host unless asked to: `--memory-limit 0` runs unbudgeted.
void ApplyRunFlags(const Args& args) {
  g_run_context.set_memory_budget(
      args.Has("memory-limit") ? args.GetSize("memory-limit", 0) << 20
                               : ocdd::HostMemoryBudget());
  std::size_t max_checks = args.GetSize("max-checks", 0);
  if (max_checks != 0) {
    g_run_context.set_check_budget(max_checks);
  }
  std::signal(SIGINT, HandleSigint);
}

/// `--checkpoint DIR [--resume] [--checkpoint-every-checks N]
/// [--checkpoint-every-seconds S] [--keep-generations K]` — shared by the
/// checkpointable algorithms (discover, fds, fastod). Cadence defaults to
/// "every level boundary" (both dimensions 0).
ocdd::CheckpointConfig CheckpointFromArgs(const Args& args) {
  ocdd::CheckpointConfig cfg;
  cfg.dir = args.Get("checkpoint", "");
  cfg.resume = args.Has("resume");
  cfg.keep_generations = args.GetSize("keep-generations", 2);
  if (cfg.enabled()) {
    g_run_context.set_checkpoint_cadence(
        args.GetU64("checkpoint-every-checks", 0),
        args.GetDouble("checkpoint-every-seconds", 0.0));
  }
  return cfg;
}

bool IsCsvSource(const Args& args) {
  return args.source.size() > 4 &&
         args.source.substr(args.source.size() - 4) == ".csv";
}

/// `--on-bad-row fail|skip|quarantine` — what to do with data records that
/// fail to ingest (ragged width, broken quoting, oversized fields, NUL
/// bytes). Strict failure is the default; see docs/robustness.md.
Result<ocdd::rel::BadRowPolicy> BadRowPolicyFromArgs(const Args& args) {
  std::string name = args.Get("on-bad-row", "fail");
  if (name == "fail") return ocdd::rel::BadRowPolicy::kFail;
  if (name == "skip") return ocdd::rel::BadRowPolicy::kSkip;
  if (name == "quarantine") return ocdd::rel::BadRowPolicy::kQuarantine;
  return Status::InvalidArgument("unknown --on-bad-row '" + name +
                                 "' (fail, skip, quarantine)");
}

/// Loads a CSV file or a built-in dataset. CSV sources go through the
/// hardened boundary with ingest accounting; dataset sources report clean.
/// Run flags must already be applied so rejected rows charge the budgets.
Result<ocdd::rel::CsvRead> LoadSource(const Args& args) {
  if (args.source.empty()) {
    return Status::InvalidArgument("missing <source> (CSV path or dataset)");
  }
  if (IsCsvSource(args)) {
    ocdd::rel::CsvOptions opts;
    opts.type_inference.force_lexicographic = args.Has("lex");
    OCDD_ASSIGN_OR_RETURN(opts.on_bad_row, BadRowPolicyFromArgs(args));
    opts.quarantine_path = args.Get("quarantine", "");
    opts.run_context = &g_run_context;
    return ocdd::rel::ReadCsvFileWithReport(args.source, opts);
  }
  ocdd::prof::ScopedTimer timer(ocdd::prof::Phase::kSynthesize);
  OCDD_ASSIGN_OR_RETURN(
      ocdd::rel::Relation relation,
      ocdd::datagen::MakeDataset(args.source, args.GetSize("rows", 0),
                                 args.GetSize("seed", 42)));
  return ocdd::rel::CsvRead{std::move(relation), {}};
}

/// Non-JSON rendering of a dirty ingest report (one `#` comment line).
void PrintIngestNote(const ocdd::rel::CsvIngestReport& report) {
  if (report.clean()) return;
  std::string codes;
  for (const auto& [code, count] : report.rejected_by_code.by_code()) {
    if (!codes.empty()) codes += ", ";
    codes += code + "=" + std::to_string(count);
  }
  std::printf("# ingest: rejected %llu of %llu rows (%s)%s%s\n",
              static_cast<unsigned long long>(report.rows_rejected),
              static_cast<unsigned long long>(report.records_total),
              codes.c_str(),
              report.quarantine_path.empty() ? "" : " -> quarantined to ",
              report.quarantine_path.c_str());
}

/// Non-JSON rendering of a `--profile` run (one `# profile:` line per
/// phase, the allocation hook's totals, the rows the checks read of the
/// input's, the unattributed wall time, and the run's own seconds and busy
/// ratio).
void PrintProfileNote(const ocdd::prof::Report& report) {
  for (const auto& p : report.phases) {
    std::printf("# profile: %-20s %10.6fs %14llu bytes %10llu calls\n",
                p.name, p.seconds, static_cast<unsigned long long>(p.bytes),
                static_cast<unsigned long long>(p.calls));
  }
  std::printf("# profile: %-20s %21llu bytes %10llu allocs\n", "alloc",
              static_cast<unsigned long long>(report.alloc_bytes),
              static_cast<unsigned long long>(report.alloc_calls));
  if (report.rows_input > 0) {
    std::printf("# profile: %-20s %llu of %llu\n", "rows",
                static_cast<unsigned long long>(report.rows_checked),
                static_cast<unsigned long long>(report.rows_input));
  }
  std::printf("# profile: %-20s %10.6fs of %.6fs wall\n", "unattributed",
              report.unattributed_seconds, report.wall_seconds);
  std::printf("# profile: %-20s %10.6fs %.4f busy_ratio\n", "run",
              report.run_seconds, report.busy_ratio);
}

/// `ocdd <task>` and `ocdd run --algo <task>`, for every row of the task
/// table: applies the run flags, loads and encodes the source, runs the row
/// under the shared context and prints its report.
int RunTask(const ocdd::report::Task& task, const Args& args) {
  // A row that takes no budget never polls the context, so it keeps
  // SIGINT's default action: Ctrl-C still stops it.
  if (task.Reads("time-limit")) ApplyRunFlags(args);
  const bool profile = args.Has("profile");
  if (profile) {
    ocdd::prof::SetEnabled(true);
    ocdd::prof::Reset();
  }
  const auto wall_start = std::chrono::steady_clock::now();
  auto source = LoadSource(args);
  if (!source.ok()) {
    std::fprintf(stderr, "%s\n", source.status().ToString().c_str());
    return 1;
  }
  ocdd::rel::EncodeOptions enc;
  enc.force_lexicographic = args.Has("lex");
  const ocdd::rel::CodedRelation coded =
      ocdd::rel::CodedRelation::Encode(source->relation, enc);

  ocdd::report::TaskParams params;
  params.threads = args.GetSize("threads", 1);
  if (args.Has("max-level")) params.max_level = args.GetSize("max-level", 0);
  params.max_ratio = args.GetDouble("max-ratio", params.max_ratio);
  params.checkpoint = CheckpointFromArgs(args);
  params.expand = args.Has("expand");
  params.max_expanded = args.GetSize("max-expanded", params.max_expanded);
  params.json = args.Has("json");
  params.ingest_rejected = source->report.rows_rejected;
  // Armed only now, so ingest and encode stay outside the deadline.
  g_run_context.set_time_limit_seconds(args.GetDouble("time-limit", 0.0));
  ocdd::report::TaskOutput out = task.run(coded, params, &g_run_context);

  ocdd::prof::Report prof_report;
  if (profile) {
    // Whatever the phases and the algorithm's own time do not cover is
    // reported, not hidden: wall = ingest or synthesize + encode + run +
    // serialize + rest.
    using ocdd::prof::Phase;
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();
    prof_report = ocdd::prof::Snapshot();
    prof_report.wall_seconds = wall;
    const double outside_run =
        ocdd::prof::PhaseSeconds(prof_report, Phase::kIngest) +
        ocdd::prof::PhaseSeconds(prof_report, Phase::kSynthesize) +
        ocdd::prof::PhaseSeconds(prof_report, Phase::kEncode) +
        ocdd::prof::PhaseSeconds(prof_report, Phase::kSerialize);
    prof_report.unattributed_seconds =
        prof_report.wall_seconds - outside_run - out.elapsed_seconds;
    // busy_ratio as perfbench defines it: the run's phase CPU over the
    // thread-seconds the run had.
    double run_cpu = -outside_run;
    for (const auto& p : prof_report.phases) run_cpu += p.seconds;
    prof_report.run_seconds = out.elapsed_seconds;
    if (out.elapsed_seconds > 0.0) {
      prof_report.busy_ratio =
          run_cpu / (static_cast<double>(params.threads) * out.elapsed_seconds);
    }
  }

  if (params.json) {
    std::string& json = out.report;
    if (IsCsvSource(args)) {
      json = ocdd::report::WithIngest(std::move(json), source->report);
    }
    if (profile) json = ocdd::report::WithProfile(std::move(json), prof_report);
    std::printf("%s\n", json.c_str());
    return 0;
  }
  PrintIngestNote(source->report);
  if (profile) PrintProfileNote(prof_report);
  std::fputs(out.report.c_str(), stdout);
  return 0;
}

/// `ocdd apply-batch [batch-file] --state DIR [--base SOURCE]` — one step of
/// the incremental maintenance pipeline (docs/incremental.md). Opens (or
/// bootstraps from `--base`) the warm session persisted under `--state`,
/// applies the batch file, and writes the next warm-state generation. With
/// no batch file the command only initializes/validates the state — the
/// bootstrap step of a streaming deployment. Exit codes: 0 ok (including a
/// budget-stopped partial walk — a truncated answer is still an answer),
/// 1 error, 2 usage.
int CmdApplyBatch(const Args& args, const char* /*argv0*/) {
  const std::string state_dir = args.Get("state", "");
  if (state_dir.empty()) {
    std::fprintf(stderr, "apply-batch requires --state DIR\n");
    return 2;
  }
  ApplyRunFlags(args);
  g_run_context.set_time_limit_seconds(args.GetDouble("time-limit", 0.0));

  ocdd::algo::IncrementalOptions opts;
  opts.state_dir = state_dir;
  opts.num_threads = args.GetSize("threads", 1);
  opts.max_level = args.GetSize("max-level", 0);
  opts.keep_generations = args.GetSize("keep-generations", 2);

  // The base source is only consulted when no warm generation is usable —
  // bootstrap, or degradation after corruption.
  std::function<ocdd::Result<ocdd::rel::Relation>()> base_loader;
  if (args.Has("base")) {
    base_loader = [&args]() -> ocdd::Result<ocdd::rel::Relation> {
      Args base_args = args;
      base_args.source = args.Get("base", "");
      OCDD_ASSIGN_OR_RETURN(ocdd::rel::CsvRead read, LoadSource(base_args));
      return std::move(read.relation);
    };
  }

  auto session =
      ocdd::algo::IncrementalSession::Open(opts, base_loader, &g_run_context);
  if (!session.ok()) {
    std::fprintf(stderr, "apply-batch: %s\n",
                 session.status().ToString().c_str());
    return 1;
  }

  ocdd::rel::BatchIngestReport ingest;
  ocdd::algo::BatchApplyStats stats;
  stats.batch_seq = session->batch_seq();
  stats.num_rows = session->relation().num_rows();
  stats.result = session->last_result();
  bool applied = false;
  if (!args.source.empty()) {
    ocdd::rel::BatchParseOptions popts;
    auto policy = BadRowPolicyFromArgs(args);
    if (!policy.ok()) {
      std::fprintf(stderr, "%s\n", policy.status().ToString().c_str());
      return 2;
    }
    popts.on_bad_row = *policy;
    auto parse = ocdd::rel::ReadBatchFile(
        args.source, session->relation().schema(), popts);
    if (!parse.ok()) {
      std::fprintf(stderr, "apply-batch: %s\n",
                   parse.status().ToString().c_str());
      return 1;
    }
    ingest = std::move(parse->report);
    auto result = session->ApplyBatch(parse->batch, &g_run_context);
    if (!result.ok()) {
      std::fprintf(stderr, "apply-batch: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    stats = std::move(*result);
    applied = true;
  }

  if (args.Has("json")) {
    std::string out = "{\"command\":\"apply_batch\"";
    out += ",\"applied\":" + std::string(applied ? "true" : "false");
    out += ",\"batch_seq\":" + std::to_string(stats.batch_seq);
    out += ",\"deletes\":" + std::to_string(stats.deletes);
    out += ",\"appends\":" + std::to_string(stats.appends);
    out += ",\"num_rows\":" + std::to_string(stats.num_rows);
    out += ",\"resumed\":" +
           std::string(session->resumed() ? "true" : "false");
    out += ",\"snapshot_written\":" +
           std::string(stats.snapshot_written ? "true" : "false");
    out += ",\"seconds\":" + std::to_string(stats.seconds);
    if (!session->open_warning().empty()) {
      out += ",\"open_warning\":\"" +
             ocdd::report::JsonEscape(session->open_warning()) + "\"";
    }
    if (!stats.warning.empty()) {
      out += ",\"warning\":\"" + ocdd::report::JsonEscape(stats.warning) +
             "\"";
    }
    out += ",\"ingest\":{\"records_total\":" +
           std::to_string(ingest.records_total) +
           ",\"ops_parsed\":" + std::to_string(ingest.ops_parsed) +
           ",\"rows_rejected\":" + std::to_string(ingest.rows_rejected) + "}";
    out += ",\"report\":" +
           ocdd::report::ToJson(stats.result, session->coded());
    out += "}";
    std::printf("%s\n", out.c_str());
    return 0;
  }

  if (!session->open_warning().empty()) {
    std::printf("# warning: %s\n", session->open_warning().c_str());
  }
  if (!stats.warning.empty()) {
    std::printf("# warning: %s\n", stats.warning.c_str());
  }
  if (!ingest.clean()) {
    std::printf("# ingest: rejected %llu of %llu batch ops\n",
                static_cast<unsigned long long>(ingest.rows_rejected),
                static_cast<unsigned long long>(ingest.records_total));
  }
  std::printf(
      "# batch %llu: -%zu +%zu rows -> %zu; %llu checks in %.3fs%s\n",
      static_cast<unsigned long long>(stats.batch_seq), stats.deletes,
      stats.appends, stats.num_rows,
      static_cast<unsigned long long>(stats.result.num_checks), stats.seconds,
      ocdd::report::PartialNote(stats.result.completed,
                                 stats.result.stop_reason).c_str());
  for (const auto& ocd : stats.result.ocds) {
    std::printf("OCD %s\n", ocd.ToString(session->coded()).c_str());
  }
  for (const auto& od : stats.result.ods) {
    std::printf("OD  %s\n", od.ToString(session->coded()).c_str());
  }
  return 0;
}

int CmdProfile(const Args& args, const char* /*argv0*/) {
  auto source = LoadSource(args);
  if (!source.ok()) {
    std::fprintf(stderr, "%s\n", source.status().ToString().c_str());
    return 1;
  }
  auto coded = ocdd::rel::CodedRelation::Encode(source->relation);
  PrintIngestNote(source->report);
  std::printf("# %zu rows x %zu columns\n", coded.num_rows(),
              coded.num_columns());
  std::printf("%-24s %10s %10s %8s\n", "column", "entropy", "distinct",
              "class");
  for (const auto& info : ocdd::core::RankColumnsByEntropy(coded)) {
    const char* cls = info.num_distinct <= 1      ? "constant"
                      : info.num_distinct <= 4    ? "quasi"
                                                  : "diverse";
    std::printf("%-24s %10.4f %10d %8s\n",
                coded.column_name(info.id).c_str(), info.entropy,
                info.num_distinct, cls);
  }
  return 0;
}

/// The ids of the comma-separated column names in `text`; false after
/// printing the first name `coded` does not have.
bool ParseColumns(const ocdd::rel::CodedRelation& coded,
                  const std::string& text,
                  std::vector<ocdd::rel::ColumnId>* out) {
  for (const std::string& name : ocdd::SplitString(text, ',')) {
    const std::string stripped(ocdd::StripAsciiWhitespace(name));
    ocdd::rel::ColumnId c = 0;
    while (c < coded.num_columns() && coded.column_name(c) != stripped) ++c;
    if (c == coded.num_columns()) {
      std::fprintf(stderr, "unknown column: %s\n", stripped.c_str());
      return false;
    }
    out->push_back(c);
  }
  return true;
}

/// What OCDDISCOVER finds within `--time-limit` (default 30 s), as the
/// optimizer's knowledge base.
ocdd::opt::OdKnowledgeBase MineKnowledgeBase(
    const ocdd::rel::CodedRelation& coded, const Args& args) {
  ocdd::core::OcdDiscoverOptions opts;
  opts.run_context = &g_run_context;
  g_run_context.set_time_limit_seconds(args.GetDouble("time-limit", 30.0));
  const auto mined = ocdd::core::DiscoverOcds(coded, opts);
  ocdd::opt::OdKnowledgeBase kb;
  for (const auto& od : mined.ods) kb.AddOd(od);
  for (const auto& ocd : mined.ocds) kb.AddOcd(ocd);
  for (const auto& cls : mined.reduction.equivalence_classes) {
    kb.AddEquivalenceClass(cls);
  }
  for (auto c : mined.reduction.constant_columns) kb.AddConstant(c);
  return kb;
}

int CmdRewrite(const Args& args, const char* /*argv0*/) {
  ApplyRunFlags(args);
  auto source = LoadSource(args);
  if (!source.ok()) {
    std::fprintf(stderr, "%s\n", source.status().ToString().c_str());
    return 1;
  }
  auto coded = ocdd::rel::CodedRelation::Encode(source->relation);
  std::string clause_text = args.Get("order-by", "");
  if (clause_text.empty()) {
    std::fprintf(stderr, "rewrite requires --order-by col1,col2,...\n");
    return 1;
  }
  std::vector<ocdd::rel::ColumnId> clause;
  if (!ParseColumns(coded, clause_text, &clause)) return 1;

  auto rewrite = MineKnowledgeBase(coded, args).SimplifyOrderBy(clause);
  std::printf("ORDER BY ");
  for (std::size_t i = 0; i < rewrite.columns.size(); ++i) {
    std::printf("%s%s", i > 0 ? ", " : "",
                coded.column_name(rewrite.columns[i]).c_str());
  }
  std::printf("\n");
  for (const auto& step : rewrite.steps) {
    if (step.reason == ocdd::opt::RewriteReason::kKept) continue;
    std::printf("# dropped %s (%s)\n",
                coded.column_name(step.column).c_str(),
                ocdd::opt::RewriteReasonName(step.reason));
  }
  return 0;
}

int CmdExplain(const Args& args, const char* /*argv0*/) {
  ApplyRunFlags(args);
  auto source = LoadSource(args);
  if (!source.ok()) {
    std::fprintf(stderr, "%s\n", source.status().ToString().c_str());
    return 1;
  }
  auto coded = ocdd::rel::CodedRelation::Encode(source->relation);
  ocdd::engine::Query query;
  std::string order_by = args.Get("order-by", "");
  if (order_by.empty()) {
    std::fprintf(stderr, "explain requires --order-by col1,col2,...\n");
    return 1;
  }
  if (!ParseColumns(coded, order_by, &query.order_by)) return 1;

  const ocdd::opt::OdKnowledgeBase kb = MineKnowledgeBase(coded, args);
  ocdd::engine::Executor ex(coded, &kb);
  std::string physical = args.Get("physical", "");
  if (!physical.empty()) {
    ocdd::engine::SortSpec spec;
    if (!ParseColumns(coded, physical, &spec)) return 1;
    ex.DeclarePhysicalOrder(spec);
    if (!ex.VerifyPhysicalOrder()) {
      std::fprintf(stderr,
                   "warning: data is NOT sorted by the declared physical "
                   "order; plan shown anyway\n");
    }
  }
  ocdd::engine::Plan plan = ex.Explain(query);
  std::printf("plan: %s\n", plan.explanation.c_str());
  std::printf("simplified ORDER BY:");
  for (auto c : plan.simplified_order_by) {
    std::printf(" %s", coded.column_name(c).c_str());
  }
  std::printf("\nsort elided: %s\n", plan.sort_elided ? "yes" : "no");
  return 0;
}

int CmdDiff(const Args& args, const char* /*argv0*/) {
  // ocdd diff --before a.json --after b.json  (reports from `--json` runs)
  std::string before_path = args.Get("before", args.source);
  std::string after_path = args.Get("after", "");
  if (before_path.empty() || after_path.empty()) {
    std::fprintf(stderr, "diff requires <before.json> --after <after.json>\n");
    return 1;
  }
  auto read_file = [](const std::string& path)
      -> ocdd::Result<ocdd::report::JsonValue> {
    FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
      return ocdd::Status::NotFound("cannot open " + path);
    }
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      text.append(buf, n);
    }
    std::fclose(f);
    return ocdd::report::ParseJson(text);
  };
  auto before = read_file(before_path);
  if (!before.ok()) {
    std::fprintf(stderr, "%s\n", before.status().ToString().c_str());
    return 1;
  }
  auto after = read_file(after_path);
  if (!after.ok()) {
    std::fprintf(stderr, "%s\n", after.status().ToString().c_str());
    return 1;
  }
  auto diff = ocdd::report::DiffReports(*before, *after);
  if (!diff.ok()) {
    std::fprintf(stderr, "%s\n", diff.status().ToString().c_str());
    return 1;
  }
  if (diff->empty()) {
    std::printf("reports are identical\n");
    return 0;
  }
  for (const auto& entry : *diff) {
    std::printf("%c %s %s\n",
                entry.change == ocdd::report::ReportDiffEntry::Change::kAdded
                    ? '+'
                    : '-',
                entry.collection.c_str(), entry.rendering.c_str());
  }
  return 0;
}

int CmdGenerate(const Args& args, const char* /*argv0*/) {
  auto source = LoadSource(args);
  if (!source.ok()) {
    std::fprintf(stderr, "%s\n", source.status().ToString().c_str());
    return 1;
  }
  const ocdd::rel::Relation& relation = source->relation;
  std::string out = args.Get("out", "");
  if (out.empty()) {
    std::fputs(ocdd::rel::WriteCsvString(relation).c_str(), stdout);
    return 0;
  }
  Status s = ocdd::rel::WriteCsvFile(relation, out);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu rows x %zu columns to %s\n", relation.num_rows(),
              relation.num_columns(), out.c_str());
  return 0;
}

/// Resolves this binary's own path so the supervised child is the same
/// build, not whatever `ocdd` is first on PATH.
std::string SelfExePath(const char* argv0) {
  char buf[4096];
  ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    return std::string(buf);
  }
  return std::string(argv0);
}

int CmdQa(const Args& args, const char* argv0) {
  ocdd::qa::QaOptions opts;
  opts.seed = args.GetU64("seed", 42);
  opts.iters = args.GetSize("iters", 100);
  opts.max_side_len = args.GetSize("max-side", 2);
  opts.metamorphic = !args.Has("no-metamorphic");
  opts.stopped_runs = !args.Has("no-stopped-runs");
  opts.resume_runs = !args.Has("no-resume-runs");
  opts.ingest = !args.Has("no-ingest");
  opts.incremental = !args.Has("no-incremental");
  opts.simd_fallback = !args.Has("no-simd");
  // The serve-equivalence stage drives this very binary both as an
  // in-process daemon's worker and as a direct baseline run.
  if (!args.Has("no-serve")) opts.serve_cli_path = SelfExePath(argv0);
  // --chaos replays the serve-equivalence exchange over TCP through the
  // fault proxy with a retrying client; the answer must still be
  // byte-identical.
  opts.serve_chaos = args.Has("chaos");
  opts.max_failures = args.GetSize("max-failures", 8);
  opts.repro_dir = args.Get("repro-dir", "");
  opts.spec.max_rows = args.GetSize("max-rows", opts.spec.max_rows);
  opts.spec.max_cols = args.GetSize("max-cols", opts.spec.max_cols);

  std::string inject = args.Get("inject", "none");
  if (inject == "none") {
    opts.inject = ocdd::qa::CorruptionMode::kNone;
  } else if (inject == "drop-ocddiscover") {
    opts.inject = ocdd::qa::CorruptionMode::kDropOcddiscover;
  } else if (inject == "invent-order-od") {
    opts.inject = ocdd::qa::CorruptionMode::kInventOrderOd;
  } else if (inject == "drop-fastod-compat") {
    opts.inject = ocdd::qa::CorruptionMode::kDropFastodCompat;
  } else {
    std::fprintf(stderr,
                 "unknown --inject mode '%s' (none, drop-ocddiscover, "
                 "invent-order-od, drop-fastod-compat)\n",
                 inject.c_str());
    return 2;
  }

  ocdd::qa::QaSummary summary = ocdd::qa::RunQa(opts);

  if (args.Has("json")) {
    std::fputs(ocdd::qa::SummaryToJson(summary).c_str(), stdout);
  } else {
    std::printf("qa: seed=%llu iters=%zu corruption=%s\n",
                static_cast<unsigned long long>(summary.seed),
                summary.iters_requested, summary.corruption.c_str());
    std::printf("  iterations run ......... %llu\n",
                static_cast<unsigned long long>(summary.iterations_run));
    std::printf("  oracle comparisons ..... %llu\n",
                static_cast<unsigned long long>(summary.oracle_comparisons));
    std::printf("  metamorphic comparisons  %llu\n",
                static_cast<unsigned long long>(
                    summary.metamorphic_comparisons));
    std::printf("  stopped-run checks ..... %llu\n",
                static_cast<unsigned long long>(summary.stopped_run_checks));
    std::printf("  resume-equivalence ..... %llu\n",
                static_cast<unsigned long long>(summary.resume_checks));
    std::printf("  ingest-policy checks ... %llu\n",
                static_cast<unsigned long long>(summary.ingest_checks));
    std::printf("  incremental-equivalence  %llu\n",
                static_cast<unsigned long long>(summary.incremental_checks));
    std::printf("  simd-fallback checks ... %llu\n",
                static_cast<unsigned long long>(summary.simd_checks));
    std::printf("  serve-equivalence ...... %llu\n",
                static_cast<unsigned long long>(summary.serve_checks));
    std::printf("  skipped (engine bound) . %llu\n",
                static_cast<unsigned long long>(summary.skipped));
    if (summary.clean()) {
      std::printf("  result: CLEAN\n");
    } else {
      std::printf("  result: %zu FAILURE(S)\n", summary.failures.size());
      for (const auto& f : summary.failures) {
        std::printf("\n[%s] iteration=%llu replay: ocdd qa --seed %llu "
                    "--iters 1%s%s  (%zux%zu)\n",
                    f.kind.c_str(),
                    static_cast<unsigned long long>(f.iteration),
                    static_cast<unsigned long long>(f.iteration_seed),
                    opts.inject == ocdd::qa::CorruptionMode::kNone
                        ? ""
                        : " --inject ",
                    opts.inject == ocdd::qa::CorruptionMode::kNone
                        ? ""
                        : summary.corruption.c_str(),
                    f.rows, f.cols);
        if (!f.repro_path.empty()) {
          std::printf("  repro csv: %s\n", f.repro_path.c_str());
        }
        if (!f.repro_error.empty()) {
          std::printf("  repro write failed: %s\n", f.repro_error.c_str());
        }
        for (const auto& d : f.discrepancies) {
          std::printf("  %s\n", d.ToString().c_str());
        }
        std::printf("  --- shrunk instance ---\n%s", f.csv.c_str());
      }
    }
  }
  return summary.clean() ? 0 : 3;
}

int CmdSupervise(const Args& args, const char* argv0) {
  if (args.Get("checkpoint", "").empty()) {
    std::fprintf(stderr,
                 "supervise requires --checkpoint DIR (restarts without a "
                 "checkpoint would repeat work from scratch)\n");
    return 2;
  }

  ocdd::engine::SuperviseOptions opts;
  opts.max_attempts = static_cast<int>(args.GetSize("max-attempts", 5));
  opts.initial_backoff_seconds = args.GetDouble("backoff", 0.5);
  opts.backoff_multiplier = args.GetDouble("backoff-multiplier", 2.0);
  opts.max_backoff_seconds = args.GetDouble("max-backoff", 30.0);
  opts.no_progress_limit =
      static_cast<int>(args.GetSize("no-progress-limit", 2));

  // Child argv: this binary, `run`, the source, then every flag that is not
  // supervisor-local. `--resume` is stripped (the supervisor appends it
  // itself from the second attempt on) and `--json` is forced (the
  // supervisor parses the child's stdout).
  std::vector<std::string> child;
  child.push_back(SelfExePath(argv0));
  child.push_back("run");
  if (!args.source.empty()) child.push_back(args.source);
  for (const auto& [flag, value] : args.flags) {
    if (ocdd::report::ListsFlag({kSuperviseFlags, "resume json"}, flag)) {
      continue;
    }
    child.push_back("--" + flag);
    if (value != "true") child.push_back(value);
  }
  child.push_back("--json");
  opts.child_args = std::move(child);

  ocdd::engine::SuperviseResult result = ocdd::engine::SuperviseRun(opts);
  std::printf("%s\n", ocdd::engine::MergedResultJson(result).c_str());
  if (!result.success) {
    std::fprintf(stderr, "supervise: gave up: %s\n",
                 result.give_up_reason.c_str());
    return 4;
  }
  return 0;
}

/// The serve daemon being drained by HandleServeStop. Set exactly once,
/// before the signal handlers are installed.
std::atomic<ocdd::serve::Server*> g_server{nullptr};

extern "C" void HandleServeStop(int) {
  // RequestStop is one write() on a pipe — async-signal-safe.
  ocdd::serve::Server* server = g_server.load(std::memory_order_relaxed);
  if (server != nullptr) server->RequestStop();
}

/// `ocdd serve <socket> [flags]` — the multi-tenant discovery daemon
/// (docs/serving.md). Runs until SIGTERM/SIGINT, then drains gracefully and
/// prints one final stats JSON document to stdout.
int CmdServe(const Args& args, const char* argv0) {
  ocdd::serve::ServerOptions opts;
  opts.socket_path = args.source;
  opts.listen_address = args.Get("listen", "");
  if (opts.socket_path.empty() && opts.listen_address.empty()) {
    std::fprintf(stderr,
                 "serve requires a <socket-path> argument or --listen\n");
    return 2;
  }
  opts.num_executors = args.GetSize("executors", 2);
  if (opts.num_executors == 0) opts.num_executors = 1;
  opts.queue_capacity = args.GetSize("queue-capacity", 16);
  opts.request_timeout_seconds = args.GetDouble("request-timeout", 0.0);
  opts.max_attempts = static_cast<int>(args.GetSize("max-attempts", 3));
  opts.backoff_base_seconds = args.GetDouble("backoff", 0.05);
  opts.backoff_cap_seconds = args.GetDouble("max-backoff", 1.0);
  opts.drain_grace_seconds = args.GetDouble("drain-grace", 5.0);
  opts.memory_watermark_bytes =
      args.GetSize("memory-watermark-mib", 0) << 20;
  opts.cache_capacity_bytes = args.GetSize("cache-mib", 16) << 20;
  opts.cache_dir = args.Get("cache-dir", "");
  opts.checkpoint_root = args.Get("checkpoint-root", "");
  opts.io_timeout_seconds = args.GetDouble("io-timeout", 5.0);
  opts.frame_deadline_seconds = args.GetDouble("frame-deadline", 10.0);
  opts.max_connections = args.GetSize("max-connections", 64);
  opts.cache_persist_interval_seconds = args.GetDouble("persist-interval", 0.0);
  opts.disk_failure_threshold =
      static_cast<int>(args.GetSize("disk-failure-threshold", 1));
  opts.disk_probe_interval_seconds = args.GetDouble("disk-probe-interval", 5.0);

  const std::string tenants_path = args.Get("tenants", "");
  if (!tenants_path.empty()) {
    auto config = ocdd::serve::LoadTenantConfig(tenants_path);
    if (!config.ok()) {
      std::fprintf(stderr, "serve: %s\n", config.status().ToString().c_str());
      return 2;
    }
    opts.tenants = std::move(*config);
  }

  opts.worker_argv_prefix = {SelfExePath(argv0), "run"};
  opts.batch_worker_argv_prefix = {SelfExePath(argv0), "apply-batch"};

  ocdd::serve::Server server(std::move(opts));
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return 1;
  }
  g_server.store(&server);
  std::signal(SIGTERM, HandleServeStop);
  std::signal(SIGINT, HandleServeStop);
  // The bound endpoint, not the spec: with --listen host:0 this is where
  // the kernel actually put us, and scripts parse this line to find out.
  std::fprintf(stderr, "serve: listening on %s\n",
               server.endpoint().ToString().c_str());

  Status ran = server.Run();
  g_server.store(nullptr);
  if (!ran.ok()) {
    std::fprintf(stderr, "%s\n", ran.ToString().c_str());
    return 1;
  }
  // The final stats document: the drain report asserted by serve_smoke.
  std::printf("%s\n",
              ocdd::report::SerializeJson(server.StatsJson()).c_str());
  return 0;
}

/// `ocdd fsck <dir> [--repair] [--no-recursive] [--json]` — scrub a
/// snapshot-store directory tree: every `<name>.<gen>.snap` is read fully
/// and CRC/structure-validated, `<name>.tmp` leftovers are flagged as
/// orphans; --repair quarantines corrupt generations into
/// `<dir>/fsck-quarantine/` (promoting the newest valid one by removal of
/// the corrupt ones above it) and reaps orphan tmp files. Exit codes:
/// 0 clean (or all problems repaired), 9 problems remain, 1 cannot scan
/// (docs/robustness.md).
int CmdFsck(const Args& args, const char* /*argv0*/) {
  if (args.source.empty()) {
    std::fprintf(stderr, "fsck requires a <dir> argument\n");
    return 2;
  }
  ocdd::FsckOptions opts;
  opts.repair = args.Has("repair");
  opts.recursive = !args.Has("no-recursive");
  auto report = ocdd::FsckDirectory(args.source, opts);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  if (args.Has("json")) {
    std::printf("%s\n", ocdd::FsckReportJson(*report).c_str());
  } else {
    std::fputs(ocdd::FsckReportText(*report).c_str(), stdout);
  }
  const std::size_t problems =
      report->corrupt_files + report->orphan_tmp_files;
  const bool handled = opts.repair && report->repaired_files >= problems &&
                       report->warnings.empty();
  return problems == 0 || handled ? 0 : 9;
}

/// `ocdd request <endpoint> --source X [flags]` — one client exchange with
/// a serve daemon (Unix socket path or TCP host:port). Exit codes: 0 ok,
/// 5 rejected, 6 timeout, 7 worker error, 8 retries/deadline/breaker
/// exhausted, 1 transport/protocol failure without retries
/// (docs/serving.md).
int CmdRequest(const Args& args, const char* /*argv0*/) {
  if (args.source.empty()) {
    std::fprintf(stderr, "request requires an <endpoint> argument\n");
    return 2;
  }
  auto endpoint = ocdd::serve::ParseEndpoint(args.source);
  if (!endpoint.ok()) {
    std::fprintf(stderr, "request: %s\n",
                 endpoint.status().ToString().c_str());
    return 2;
  }

  ocdd::serve::ServeRequest req;
  req.kind = args.Get("kind", "run");
  req.id = args.Get("id", "");
  req.tenant = args.Get("tenant", "default");
  req.algo = args.Get("algo", req.algo);
  req.source = args.Get("source", "");
  req.rows = args.GetSize("rows", 0);
  req.seed = args.GetSize("seed", 42);
  req.max_level = args.GetSize("max-level", 0);
  req.use_cache = !args.Has("no-cache");
  req.batch = args.Get("batch", "");
  req.state = args.Get("state", "");

  ocdd::serve::ClientOptions copts;
  copts.io_timeout_seconds = args.GetDouble("io-timeout", 600.0);

  ocdd::serve::ServeResponse response;
  const bool resilient = args.Has("retries") || args.Has("deadline");
  if (resilient) {
    ocdd::serve::RetryOptions retry;
    retry.max_retries = static_cast<int>(args.GetSize("retries", 0));
    retry.deadline_seconds = args.GetDouble("deadline", 0.0);
    retry.backoff_base_seconds = args.GetDouble("retry-backoff", 0.05);
    retry.breaker_threshold =
        static_cast<int>(args.GetSize("breaker-threshold", 0));
    ocdd::serve::ServeClient client(*endpoint, copts, retry);
    ocdd::serve::ClientResult result = client.Call(req);
    if (result.outcome != ocdd::serve::ClientOutcome::kResponse) {
      std::fprintf(stderr, "request: %s: %s\n",
                   ocdd::serve::ClientOutcomeName(result.outcome),
                   result.error.c_str());
      return 8;
    }
    if (result.attempts > 1) {
      std::fprintf(stderr, "request: succeeded on attempt %d\n",
                   result.attempts);
    }
    response = std::move(result.response);
  } else {
    auto resp = ocdd::serve::SendRequestOnce(*endpoint, req, copts);
    if (!resp.ok()) {
      std::fprintf(stderr, "request: %s\n", resp.status().ToString().c_str());
      return 1;
    }
    response = std::move(*resp);
  }

  if (args.Has("report-only") && response.have_report) {
    std::printf("%s\n", ocdd::report::SerializeJson(response.report).c_str());
  } else {
    std::printf("%s\n", ocdd::serve::SerializeResponse(response).c_str());
  }
  if (response.status == "ok") return 0;
  if (response.status == "rejected") return 5;
  if (response.status == "timeout") return 6;
  return 7;
}

void Usage() {
  std::fprintf(stderr,
               "usage: ocdd <command> <source> [flags]\n"
               "commands:\n"
               "  run        checkpointable run: --algo %s plus\n",
               ocdd::report::RunnableTaskNames("|").c_str());
  std::fputs(
      "             --checkpoint DIR [--resume]\n"
      "             [--checkpoint-every-checks N]\n"
      "             [--checkpoint-every-seconds S] [--keep-generations K]\n"
      "  supervise  run under supervision: crashed or budget-stopped children\n"
      "             are restarted with --resume and exponential backoff\n"
      "             (--max-attempts N --backoff S --max-backoff S\n"
      "              --backoff-multiplier M --no-progress-limit K);\n"
      "             requires --checkpoint DIR; prints one merged JSON report;\n"
      "             exit 4 = gave up\n"
      "  serve      multi-tenant discovery daemon on a Unix socket or TCP:\n"
      "             ocdd serve /path.sock | --listen HOST:PORT\n"
      "             [--executors N] [--queue-capacity N]\n"
      "             [--max-connections N] [--frame-deadline S]\n"
      "             [--tenants FILE] [--cache-mib N] [--cache-dir DIR]\n"
      "             [--checkpoint-root DIR] [--request-timeout S]\n"
      "             [--max-attempts N] [--memory-watermark-mib N]\n"
      "             [--drain-grace S] [--persist-interval S]\n"
      "             [--disk-failure-threshold N] [--disk-probe-interval S];\n"
      "             SIGTERM drains gracefully and prints final stats JSON;\n"
      "             persistent-write failures flip the daemon to a degraded\n"
      "             mode that keeps serving from memory (docs/serving.md,\n"
      "             docs/robustness.md)\n"
      "  request    one exchange with a serve daemon: ocdd request\n"
      "             /path.sock|HOST:PORT --source SRC [--algo X] [--tenant T]\n"
      "             [--kind run|ping|stats] [--no-cache] [--report-only]\n"
      "             [--retries N] [--deadline S] [--retry-backoff S]\n"
      "             [--breaker-threshold N]; exit 0 ok, 5 rejected,\n"
      "             6 timeout, 7 worker error, 8 retries/deadline exhausted\n"
      "  apply-batch  incremental maintenance step: ocdd apply-batch\n"
      "             [batch-file] --state DIR [--base SOURCE] [--rows N]\n"
      "             [--seed S] [--threads N] [--max-level L] [--json]\n"
      "             [--keep-generations K]\n"
      "             [--on-bad-row fail|skip|quarantine]; with no batch file\n"
      "             only bootstraps/validates the warm state\n"
      "             (docs/incremental.md)\n"
      "  fsck       scrub a snapshot/cache/checkpoint directory tree:\n"
      "             ocdd fsck DIR [--repair] [--no-recursive] [--json];\n"
      "             validates every generation's CRCs, flags orphan tmp\n"
      "             files; --repair quarantines corrupt generations into\n"
      "             DIR/fsck-quarantine/ and reaps orphans; exit 0 clean,\n"
      "             9 problems remain, 1 cannot scan (docs/robustness.md)\n",
      stderr);
  for (const ocdd::report::Task& task : ocdd::report::Tasks()) {
    std::fprintf(stderr, "  %-10s %s\n", task.name, task.summary);
  }
  std::fputs(
      "  profile    per-column entropy/cardinality profile\n"
      "  rewrite    simplify --order-by col1,col2,... using mined ODs\n"
      "  explain    show the executor plan for --order-by [--physical cols]\n"
      "  diff       compare two --json reports: <before.json> --after <b.json>\n"
      "  generate   materialize a synthetic dataset (--out file.csv)\n"
      "  qa         differential/metamorphic sweep over random relations:\n"
      "             --seed S --iters K [--inject MODE] [--json]\n"
      "             [--repro-dir DIR] [--max-rows N] [--max-cols N]\n"
      "             [--no-metamorphic] [--no-stopped-runs]\n"
      "             [--no-resume-runs] [--no-ingest] [--no-incremental]\n"
      "             [--no-simd] [--no-serve] [--chaos]\n"
      "             exit 0 = clean, 3 = discrepancies (see docs/qa.md)\n"
      "<source>: a .csv path or a dataset name (YES, NO, NUMBERS, LINEITEM,\n"
      "          LETTER, DBTESMA, DBTESMA_1K, FLIGHT_1K, HEPATITIS, HORSE,\n"
      "          NCVOTER_1K)\n"
      "flags: --rows N --seed S --threads N --time-limit SEC --max-level L\n"
      "       --memory-limit MIB --max-checks N\n"
      "        (--memory-limit defaults to half of the smaller of the cgroup\n"
      "        memory limit and the host's RAM; 0 = unbudgeted)\n"
      "       --checkpoint DIR --resume\n"
      "       --on-bad-row fail|skip|quarantine   (CSV ingest policy;\n"
      "        default fail: the first malformed data row aborts the read\n"
      "        with a structured error naming the byte offset and row)\n"
      "       --quarantine FILE  (with --on-bad-row quarantine: raw copies\n"
      "        of rejected rows land here; counts go to the JSON report's\n"
      "        \"ingest\" member either way)\n"
      "       --expand --lex --max-ratio R --order-by LIST\n"
      "       --profile  (in-process per-phase cycle/byte profile: a\n"
      "        \"profile\" member in --json reports, `# profile:` lines\n"
      "        otherwise; OCDD_PROFILE=1 enables it process-wide)\n"
      "       --json\n"
      "       --out FILE\n"
      "       each command accepts only the flags it reads; any other flag\n"
      "       exits 2 naming it\n"
      "env: OCDD_SIMD=off|scalar|avx2 pins the check-kernel backend\n"
      "     (default: auto-detect; scalar fallback is bit-identical)\n"
      "The first Ctrl-C cancels a discovery run cooperatively: the run\n"
      "drains (writing a final checkpoint when --checkpoint is set), partial\n"
      "results are printed with a stop reason, and the exit status stays 0.\n"
      "A second Ctrl-C exits immediately with status 130 (see\n"
      "docs/robustness.md for the full exit-code table).\n",
      stderr);
}

/// One verb: its handler and the flags it reads, as space-separated names
/// and groups. A task verb, and a verb that picks a task with `--algo`, also
/// reads the source flags and the flags of its row, and runs it when it has
/// no handler of its own. A flag outside the list is rejected before any
/// work starts.
struct Verb {
  const char* name;
  int (*run)(const Args& args, const char* argv0);
  std::vector<const char*> flags;
  const ocdd::report::Task* task = nullptr;
  bool picks_task = false;
};

const std::vector<Verb>& Verbs() {
  static const std::vector<Verb> verbs = [] {
    std::vector<Verb> v = {
        {"run", nullptr, {"algo"}, nullptr, true},
        {"supervise", CmdSupervise, {"algo", kSuperviseFlags}, nullptr, true},
        {"serve", CmdServe,
         {"listen executors queue-capacity request-timeout max-attempts "
          "backoff max-backoff drain-grace memory-watermark-mib cache-mib "
          "cache-dir checkpoint-root io-timeout frame-deadline "
          "max-connections persist-interval disk-failure-threshold "
          "disk-probe-interval tenants"}},
        {"request", CmdRequest,
         {"kind id tenant algo source rows seed max-level no-cache batch "
          "state io-timeout retries deadline retry-backoff breaker-threshold "
          "report-only"}},
        {"fsck", CmdFsck, {"repair no-recursive json"}},
        {"apply-batch", CmdApplyBatch,
         {kSourceFlags, kBudgetFlags,
          "state base threads max-level keep-generations json"}},
        {"profile", CmdProfile, {kSourceFlags}},
        {"rewrite", CmdRewrite, {kSourceFlags, kBudgetFlags, "order-by"}},
        {"explain", CmdExplain,
         {kSourceFlags, kBudgetFlags, "order-by physical"}},
        {"diff", CmdDiff, {"before after"}},
        {"generate", CmdGenerate, {kSourceFlags, "out"}},
        {"qa", CmdQa,
         {"seed iters max-side no-metamorphic no-stopped-runs "
          "no-resume-runs no-ingest no-incremental no-simd no-serve chaos "
          "max-failures repro-dir max-rows max-cols inject json"}},
    };
    for (const ocdd::report::Task& task : ocdd::report::Tasks()) {
      v.push_back({task.name, nullptr, {}, &task});
    }
    return v;
  }();
  return verbs;
}

int Dispatch(const Args& args, char** argv) {
  for (const Verb& verb : Verbs()) {
    if (args.command != verb.name) continue;
    const ocdd::report::Task* task = verb.task;
    if (verb.picks_task) {
      const std::string algo = args.Get("algo", "discover");
      task = ocdd::report::FindRunnableTask(algo);
      if (task == nullptr) {
        std::fprintf(stderr, "ocdd %s: unknown --algo '%s' (%s)\n",
                     verb.name, algo.c_str(),
                     ocdd::report::RunnableTaskNames(", ").c_str());
        return 2;
      }
    }
    std::vector<const char*> flags = verb.flags;
    if (task != nullptr) {
      flags.push_back(kSourceFlags);
      flags.insert(flags.end(), task->flags.begin(), task->flags.end());
    }
    for (const auto& [flag, value] : args.flags) {
      if (!ocdd::report::ListsFlag(flags, flag)) {
        std::fprintf(stderr, "ocdd %s: unknown flag --%s\n", verb.name,
                     flag.c_str());
        return 2;
      }
    }
    return verb.run != nullptr ? verb.run(args, argv[0])
                               : RunTask(*task, args);
  }
  Usage();
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  auto args = ParseArgs(argc, argv);
  if (!args.ok()) {
    Usage();
    return 2;
  }
  try {
    return Dispatch(*args, argv);
  } catch (const BadFlag& e) {
    std::fprintf(stderr, "ocdd: %s\n", e.what());
    return 2;
  }
}
