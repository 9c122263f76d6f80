#ifndef OCDD_REPORT_TASKS_H_
#define OCDD_REPORT_TASKS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/run_context.h"
#include "common/snapshot.h"
#include "relation/coded_relation.h"

namespace ocdd::report {

/// The discovery tasks of `ocdd`, as one table that the CLI's task verbs,
/// `ocdd run --algo` and the serve daemon's request check all read: an
/// algorithm is one row. A task is its dataset (the encoded relation the
/// caller loads) plus the parameters below; a row reads only those behind
/// the flags it lists. Budgets are not parameters: the caller arms them on
/// the RunContext the row runs under.

/// Flag groups the rows share, as space-separated names.
inline constexpr const char* kBudgetFlags =
    "time-limit memory-limit max-checks";
inline constexpr const char* kCheckpointFlags =
    "checkpoint resume checkpoint-every-checks checkpoint-every-seconds "
    "keep-generations";

struct TaskParams {
  std::size_t threads = 1;               ///< --threads
  std::optional<std::size_t> max_level;  ///< --max-level; unset: row default
  double max_ratio = 0.05;               ///< --max-ratio
  CheckpointConfig checkpoint;           ///< --checkpoint DIR [--resume] ...
  bool expand = false;                   ///< --expand
  std::size_t max_expanded = 100000;     ///< --max-expanded
  bool json = false;                     ///< --json
  /// Rows the ingest layer rejected, stamped on the report's `stop_state`.
  std::uint64_t ingest_rejected = 0;
};

struct TaskOutput {
  /// The JSON report under `TaskParams::json`, the text lines otherwise.
  std::string report;
  /// The algorithm's own wall time (the report's `elapsed_seconds`).
  double elapsed_seconds = 0.0;
};

/// True when `flag` is one of the names in `groups` (space-separated names
/// per group).
bool ListsFlag(const std::vector<const char*>& groups, std::string_view flag);

struct Task {
  const char* name;
  /// One line for `ocdd`'s usage text.
  const char* summary;
  /// Flags the row reads besides the source flags every task reads, as
  /// space-separated names and groups; a row without `json` prints text.
  std::vector<const char*> flags;
  TaskOutput (*run)(const rel::CodedRelation& relation,
                    const TaskParams& params, RunContext* context);

  bool Reads(std::string_view flag) const { return ListsFlag(flags, flag); }
};

/// Every row, in usage order.
const std::vector<Task>& Tasks();

/// The rows `ocdd run --algo` and the serve daemon accept: those that read
/// `checkpoint`, so a supervised or served run can resume. nullptr for any
/// other name.
const Task* FindRunnableTask(std::string_view name);

/// The names FindRunnableTask accepts, joined by `separator`.
std::string RunnableTaskNames(const char* separator);

/// " (stopped: <reason> — partial results)" for a stopped run, "" for a
/// completed one.
std::string PartialNote(bool completed, StopReason reason);

}  // namespace ocdd::report

#endif  // OCDD_REPORT_TASKS_H_
