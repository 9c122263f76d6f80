#include "report/tasks.h"

#include <cstdarg>
#include <cstdio>

#include "algo/fastod/fastod.h"
#include "algo/fastod/fastod_bid.h"
#include "algo/fd/tane.h"
#include "algo/order/order_discover.h"
#include "algo/ucc/ucc.h"
#include "common/prof.h"
#include "common/string_util.h"
#include "core/approximate.h"
#include "core/expansion.h"
#include "core/ocd_discover.h"
#include "core/polarized.h"
#include "report/json_writer.h"

namespace ocdd::report {

namespace {

/// One printf-formatted line of at most 255 bytes: counts and notes only.
__attribute__((format(printf, 1, 2))) std::string Format(const char* format,
                                                        ...) {
  char line[256];
  std::va_list args;
  va_start(args, format);
  std::vsnprintf(line, sizeof(line), format, args);
  va_end(args);
  return line;
}

/// A run's output: its JSON report (timed as the profiler's serialize
/// phase) under `params.json`, else empty for the row's text lines.
template <typename Result>
TaskOutput Output(const Result& result, const rel::CodedRelation& relation,
                  const TaskParams& params, double elapsed_seconds) {
  TaskOutput out;
  out.elapsed_seconds = elapsed_seconds;
  if (params.json) {
    prof::ScopedTimer timer(prof::Phase::kSerialize);
    out.report = ToJson(result, relation);
  }
  return out;
}

/// One "<tag><rendering>" line per item.
template <typename Items>
void AppendLines(std::string& out, const char* tag, const Items& items,
                 const rel::CodedRelation& relation) {
  for (const auto& item : items) out += tag + item.ToString(relation) + "\n";
}

using ull = unsigned long long;

TaskOutput RunDiscover(const rel::CodedRelation& coded,
                       const TaskParams& params, RunContext* context) {
  core::OcdDiscoverOptions opts;
  opts.run_context = context;
  opts.num_threads = params.threads;
  if (params.max_level) opts.max_level = *params.max_level;
  opts.checkpoint = params.checkpoint;
  core::OcdDiscoverResult result = core::DiscoverOcds(coded, opts);
  result.stop_state.ingest_rejected = params.ingest_rejected;
  TaskOutput out = Output(result, coded, params, result.elapsed_seconds);
  if (params.json) return out;
  out.report += Format(
      "# %zu rows x %zu columns; %llu checks in %.3fs%s\n", coded.num_rows(),
      coded.num_columns(), ull{result.num_checks}, result.elapsed_seconds,
      PartialNote(result.completed, result.stop_reason).c_str());
  out.report += "# reduction: " + result.reduction.ToString(coded) + "\n";
  AppendLines(out.report, "OCD ", result.ocds, coded);
  AppendLines(out.report, "OD  ", result.ods, coded);
  if (params.expand) {
    core::ExpansionOptions exp;
    exp.max_materialized = params.max_expanded;
    const core::ExpandedResult expanded =
        core::ExpandResults(result, coded, exp);
    out.report += Format("# expanded: %llu ODs%s\n",
                         ull{expanded.total_count},
                         expanded.truncated ? " (listing truncated)" : "");
    AppendLines(out.report, "ODx ", expanded.ods, coded);
  }
  return out;
}

TaskOutput RunFds(const rel::CodedRelation& coded, const TaskParams& params,
                  RunContext* context) {
  algo::TaneOptions opts;
  opts.run_context = context;
  opts.checkpoint = params.checkpoint;
  algo::TaneResult result = algo::DiscoverFds(coded, opts);
  result.stop_state.ingest_rejected = params.ingest_rejected;
  TaskOutput out = Output(result, coded, params, result.elapsed_seconds);
  if (params.json) return out;
  out.report += Format(
      "# %zu minimal FDs in %.3fs%s\n", result.fds.size(),
      result.elapsed_seconds,
      PartialNote(result.completed, result.stop_reason).c_str());
  AppendLines(out.report, "FD  ", result.fds, coded);
  return out;
}

TaskOutput RunFastod(const rel::CodedRelation& coded,
                     const TaskParams& params, RunContext* context) {
  algo::FastodOptions opts;
  opts.run_context = context;
  opts.checkpoint = params.checkpoint;
  algo::FastodResult result = algo::DiscoverFastod(coded, opts);
  result.stop_state.ingest_rejected = params.ingest_rejected;
  TaskOutput out = Output(result, coded, params, result.elapsed_seconds);
  if (params.json) return out;
  out.report += Format(
      "# %zu constancy + %zu compatibility canonical ODs in %.3fs%s\n",
      result.num_constancy, result.num_compatible, result.elapsed_seconds,
      PartialNote(result.completed, result.stop_reason).c_str());
  AppendLines(out.report, "COD ", result.ods, coded);
  return out;
}

TaskOutput RunFastodBid(const rel::CodedRelation& coded,
                        const TaskParams& params, RunContext* context) {
  algo::FastodBidOptions opts;
  opts.run_context = context;
  const algo::FastodBidResult result = algo::DiscoverFastodBid(coded, opts);
  TaskOutput out = Output(result, coded, params, result.elapsed_seconds);
  if (params.json) return out;
  out.report += Format(
      "# %zu constancy + %zu concordant + %zu anti-concordant canonical ODs "
      "in %.3fs%s\n",
      result.num_constancy, result.num_concordant, result.num_anti,
      result.elapsed_seconds,
      PartialNote(result.completed, result.stop_reason).c_str());
  AppendLines(out.report, "BOD ", result.ods, coded);
  return out;
}

TaskOutput RunOrder(const rel::CodedRelation& coded, const TaskParams& params,
                    RunContext* context) {
  algo::OrderDiscoverOptions opts;
  opts.run_context = context;
  opts.num_threads = params.threads;
  algo::OrderDiscoverResult result =
      algo::DiscoverOrderDependencies(coded, opts);
  result.stop_state.ingest_rejected = params.ingest_rejected;
  TaskOutput out = Output(result, coded, params, result.elapsed_seconds);
  if (params.json) return out;
  out.report += Format(
      "# %zu disjoint-side ODs in %.3fs%s\n", result.ods.size(),
      result.elapsed_seconds,
      PartialNote(result.completed, result.stop_reason).c_str());
  AppendLines(out.report, "OD  ", result.ods, coded);
  return out;
}

TaskOutput RunApprox(const rel::CodedRelation& coded,
                     const TaskParams& params, RunContext* /*context*/) {
  const std::vector<core::ApproximateOcd> found =
      core::DiscoverApproximatePairOcds(coded, params.max_ratio);
  TaskOutput out = Output(found, coded, params, 0.0);
  if (params.json) return out;
  out.report += Format("# %zu column pairs with g3 ratio <= %.3f\n",
                       found.size(), params.max_ratio);
  for (const auto& a : found) {
    out.report += "AOCD " + a.ocd.ToString(coded) +
                  Format("  (remove %zu rows, %.2f%%)\n", a.error.removals,
                         100.0 * a.error.ratio);
  }
  return out;
}

TaskOutput RunUccs(const rel::CodedRelation& coded,
                   const TaskParams& /*params*/, RunContext* context) {
  algo::UccOptions opts;
  opts.run_context = context;
  const algo::UccResult result = algo::DiscoverUccs(coded, opts);
  TaskOutput out;
  out.elapsed_seconds = result.elapsed_seconds;
  out.report += Format(
      "# %zu minimal unique column combinations in %.3fs%s\n",
      result.uccs.size(), result.elapsed_seconds,
      PartialNote(result.completed, result.stop_reason).c_str());
  out.report +=
      "# primary-key candidates, most order-relevant first (section 5.4):\n";
  AppendLines(out.report, "UCC ", algo::RankKeyCandidates(coded, result),
              coded);
  return out;
}

TaskOutput RunPolarized(const rel::CodedRelation& coded,
                        const TaskParams& params, RunContext* context) {
  core::PolarizedDiscoverOptions opts;
  opts.run_context = context;
  opts.num_threads = params.threads;
  if (params.max_level) opts.max_level = *params.max_level;
  const core::PolarizedDiscoverResult result =
      core::DiscoverPolarizedOcds(coded, opts);
  TaskOutput out;
  out.elapsed_seconds = result.elapsed_seconds;
  out.report += Format(
      "# %zu polarized OCDs, %zu polarized ODs in %.3fs%s\n",
      result.ocds.size(), result.ods.size(), result.elapsed_seconds,
      PartialNote(result.completed, result.stop_reason).c_str());
  AppendLines(out.report, "POCD ", result.ocds, coded);
  AppendLines(out.report, "POD  ", result.ods, coded);
  return out;
}

}  // namespace

bool ListsFlag(const std::vector<const char*>& groups,
               std::string_view flag) {
  for (const char* group : groups) {
    for (const std::string& name : SplitString(group, ' ')) {
      if (name == flag) return true;
    }
  }
  return false;
}

const std::vector<Task>& Tasks() {
  static const std::vector<Task> tasks = {
      {"discover", "OCDDISCOVER: order compatibility + order dependencies",
       {kBudgetFlags, kCheckpointFlags,
        "json threads max-level profile expand max-expanded"},
       RunDiscover},
      {"fds", "TANE: minimal functional dependencies",
       {kBudgetFlags, kCheckpointFlags, "json profile"}, RunFds},
      {"fastod", "FASTOD: set-based canonical order dependencies",
       {kBudgetFlags, kCheckpointFlags, "json profile"}, RunFastod},
      {"fastod-bid", "bidirectional canonical order dependencies",
       {kBudgetFlags, "json profile"}, RunFastodBid},
      {"order", "ORDER: disjoint-side order dependencies",
       {kBudgetFlags, "json threads profile"}, RunOrder},
      {"approx", "approximate pairwise OCDs (g3 error)",
       {"max-ratio json profile"}, RunApprox},
      {"uccs", "minimal unique column combinations (key candidates)",
       {kBudgetFlags, "profile"}, RunUccs},
      {"polarized", "bidirectional OCDs/ODs (per-attribute ASC/DESC)",
       {kBudgetFlags, "threads max-level profile"}, RunPolarized},
  };
  return tasks;
}

const Task* FindRunnableTask(std::string_view name) {
  for (const Task& task : Tasks()) {
    if (name == task.name && task.Reads("checkpoint")) return &task;
  }
  return nullptr;
}

std::string RunnableTaskNames(const char* separator) {
  std::string names;
  for (const Task& task : Tasks()) {
    if (!task.Reads("checkpoint")) continue;
    if (!names.empty()) names += separator;
    names += task.name;
  }
  return names;
}

std::string PartialNote(bool completed, StopReason reason) {
  if (completed) return "";
  return std::string(" (stopped: ") + StopReasonName(reason) +
         " — partial results)";
}

}  // namespace ocdd::report
