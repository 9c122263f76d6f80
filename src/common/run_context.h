#ifndef OCDD_COMMON_RUN_CONTEXT_H_
#define OCDD_COMMON_RUN_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace ocdd {

/// The exception a `throw` fault raises at an injection point. Algorithms
/// treat it like any other exception escaping their check machinery: the
/// run stops, the partial result is returned with
/// `StopReason::kFaultInjected`.
class FaultInjectedError : public std::runtime_error {
 public:
  explicit FaultInjectedError(const std::string& what)
      : std::runtime_error(what) {}
};

/// A portable bundle of the three RunContext budgets — the unit in which
/// the serve daemon hands out tenant quotas. A worker child process gets it
/// as the equivalent `ocdd` CLI flags (`ToCliFlags`), so a tenant quota and
/// a `--max-checks` flag on the command line are the same object
/// (docs/serving.md).
struct RunBudgets {
  /// Wall-clock limit in seconds; 0 = unlimited.
  double time_limit_seconds = 0.0;
  /// Candidate-check budget; 0 = unlimited.
  std::uint64_t max_checks = 0;
  /// Byte-accounted memory budget; 0 = unlimited.
  std::size_t memory_bytes = 0;

  /// The equivalent CLI flags (`--time-limit S --max-checks N
  /// --memory-limit MIB`), omitting unlimited dimensions. Memory rounds up
  /// to whole MiB — the flag's unit.
  std::vector<std::string> ToCliFlags() const;
};

/// The memory budget the CLI gives a run that names none: half of the
/// smaller of the cgroup memory limit and the host's RAM. The inputs are
/// file texts: `cgroup_memory_max` of cgroup v2 `memory.max` ("max" or a
/// byte count; cgroup v1 `memory.limit_in_bytes` holds a byte count too),
/// `meminfo` of `/proc/meminfo` (its `MemTotal:` line, in kB). A text that
/// does not parse sets no limit; 0 = neither does.
std::size_t DefaultMemoryBudget(std::string_view cgroup_memory_max,
                                std::string_view meminfo);

/// The cgroup files that may limit a process's memory, given the text of
/// its `/proc/self/cgroup`: `memory.max` of its cgroup v2 (the `0::` line)
/// and `memory.limit_in_bytes` of its cgroup v1 memory controller (the
/// line whose controller list names `memory`), each for the process's own
/// cgroup and every ancestor up to the mount root, which is listed even
/// when the text has no such line. Every one of them bounds the process.
/// Paths are under `/sys/fs/cgroup` (v2) and `/sys/fs/cgroup/memory` (v1).
std::vector<std::string> CgroupMemoryLimitFiles(
    std::string_view proc_self_cgroup);

/// The smallest `DefaultMemoryBudget` over this host's files: each file of
/// `CgroupMemoryLimitFiles(/proc/self/cgroup)` that exists, with
/// `/proc/meminfo`. 0 = none of them sets a limit.
std::size_t HostMemoryBudget();

/// Why a discovery run stopped before exhausting its search space.
///
/// Every algorithm result struct carries a `StopReason` next to its
/// `completed` flag; `kNone` means the run was not stopped, and a
/// structural cap reports `kLevelCap` like any other stop.
enum class StopReason {
  kNone = 0,
  kDeadline,       ///< the wall-clock deadline passed
  kCheckBudget,    ///< the candidate-check budget was spent
  kMemoryBudget,   ///< the byte-accounted memory budget was exceeded
  kCancelled,      ///< Cancel() was called (signal handler, other thread)
  kFaultInjected,  ///< a fault-injection point fired (or a check threw)
  kLevelCap,       ///< a max-level / max-candidates structural cap tripped
};

/// Stable lower_snake_case name for `reason` (e.g. "check_budget"), used by
/// the JSON report schema and the CLI.
const char* StopReasonName(StopReason reason);

/// Where a stopped run was when it stopped — enough for the supervisor to
/// decide restart-vs-give-up and for triage ("died at level 7 with 40k
/// candidates in flight"). Embedded in every algorithm result struct and
/// emitted under "stop_state" in the JSON reports.
struct StopState {
  /// Candidate checks consumed when the run unwound.
  std::uint64_t checks = 0;
  /// Lattice/tree level the run was working on (0 = before level loop).
  std::size_t level = 0;
  /// Candidates/nodes in the frontier of that level.
  std::size_t frontier_size = 0;
  /// Rows the ingest layer rejected (skipped or quarantined) before the run
  /// started. Algorithms never touch this; the CLI stamps it after loading a
  /// CSV source so stopped-run triage can see "the data was already short".
  std::uint64_t ingest_rejected = 0;
};

/// Shared run-control handle for every discovery algorithm — the single
/// implementation of the budget/cancellation semantics that used to be
/// hand-rolled per algorithm.
///
/// A RunContext carries:
///  * a monotonic **deadline** (`set_time_limit_seconds` / `set_deadline`),
///  * a **candidate-check budget** in units of individual validity checks
///    (OCD single checks, OD checks, FD error comparisons, UCC uniqueness
///    probes — whatever the algorithm counts in its `num_checks`),
///  * a byte-accounted **memory budget** (`ChargeMemory`/`ReleaseMemory`,
///    charged by algorithms for their dominant allocations: candidate
///    frontiers and per-level partition sets),
///  * an atomic **cancellation flag** — `Cancel()` is async-signal-safe and
///    callable from any thread or signal handler.
///
/// Its injection points (`AtInjectionPoint`) fire the run-kind faults armed
/// in the process-global fault registry (common/io_env.h).
///
/// The first stop condition observed wins: `stop_reason()` is latched once
/// and never overwritten, so a run that hits its deadline while a SIGINT
/// races in reports exactly one reason.
///
/// Thread-safety: all methods are safe to call concurrently *during* a run.
/// Configuration (`set_*`) must happen before the run starts; `Reset()` must
/// not race with a run.
///
/// Without a check budget, checks are counted per thread, each thread's
/// tally on a cache line of its own, so pool workers that count checks
/// never write a line another worker writes. Under a budget they are
/// counted on one shared counter, whose single add per count latches the
/// budget exactly. The fields `ShouldStop()` reads on every check sit on a
/// line that only configuration and the stop latch write. `checks()` sums
/// the counter and the tallies.
class RunContext {
 public:
  RunContext() = default;
  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  // ---- configuration (before the run) ----

  /// Arms the deadline `seconds` from now; <= 0 disarms it.
  void set_time_limit_seconds(double seconds);

  /// Arms an absolute monotonic deadline.
  void set_deadline(std::chrono::steady_clock::time_point deadline);

  /// Total candidate checks allowed; 0 = unlimited. Only checks counted
  /// while it is set spend it, so set it before the run.
  void set_check_budget(std::uint64_t checks);

  /// Byte budget for `ChargeMemory`; 0 = unlimited.
  void set_memory_budget(std::size_t bytes);
  std::size_t memory_budget() const {
    return memory_budget_.load(std::memory_order_relaxed);
  }

  /// Arms the checkpoint cadence: `CheckpointDue()` turns true after
  /// `every_checks` further checks or `every_seconds` elapsed wall-clock
  /// time, whichever comes first (0 disables that dimension; both 0 means
  /// every call to `CheckpointDue()` reports true, i.e. checkpoint at every
  /// opportunity). Algorithms consult this at safe boundaries (end of a
  /// lattice level) and call `MarkCheckpointed()` after a successful write.
  void set_checkpoint_cadence(std::uint64_t every_checks,
                              double every_seconds);

  // ---- cooperative cancellation ----

  /// Requests a cooperative stop with reason `kCancelled`. Only touches an
  /// atomic flag, hence safe from signal handlers.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// Latches `reason` as the stop reason unless one is already set: the
  /// first reason wins, later calls never overwrite it (concurrent deadline
  /// + SIGINT surface exactly one reason). Returns true when this call did
  /// the latching, false when another reason was already in place (or
  /// `reason` is `kNone`, which is a no-op).
  bool RequestStop(StopReason reason);

  // ---- hot-path API (called inside algorithm loops) ----

  /// Evaluates every stop condition, latching the first one observed; the
  /// check budget is judged by the count that spends it (`CountCheck`), so
  /// this reads no counter. Returns true when the run should unwind.
  bool ShouldStop();

  /// Accounts `n` candidate checks. Without a check budget that is one add
  /// on this thread's tally, returning false: callers poll `ShouldStop()`
  /// between checks for the other stops. Under a budget it is one add on
  /// the shared counter, then the poll of `ShouldStop()` with the budget
  /// judged by that add's total, so the budget latches at the count that
  /// spends it. Pool workers that passed their poll before then still
  /// count the checks they had started: the budget is overshot by at most
  /// the largest `n` per other worker.
  bool CountCheck(std::uint64_t n = 1);

  /// Accounts an allocation of `bytes`. Returns false — and latches
  /// `kMemoryBudget` — when the charge would exceed the budget (the charge
  /// is then *not* recorded, mirroring a failed allocation).
  bool ChargeMemory(std::size_t bytes);

  /// Returns previously charged bytes to the budget.
  void ReleaseMemory(std::size_t bytes);

  /// Fault-injection hook for the run-kind faults armed on `IoEnv::Get()`
  /// (`<point>=cancel|alloc|throw`): latches `kFaultInjected`, latches
  /// `kMemoryBudget` as a failed allocation would, or throws
  /// FaultInjectedError. One relaxed load when no run fault is armed.
  void AtInjectionPoint(const char* point);

  // ---- checkpoint cadence (consulted at level boundaries) ----

  /// True when a snapshot should be taken at the next safe boundary. Always
  /// true when checkpointing runs without a configured cadence.
  bool CheckpointDue() const;

  /// Restarts the cadence clock after a successful snapshot write.
  void MarkCheckpointed();

  // ---- observers ----

  bool stop_requested() const {
    return stop_reason_.load(std::memory_order_relaxed) !=
               static_cast<int>(StopReason::kNone) ||
           cancelled_.load(std::memory_order_relaxed);
  }
  StopReason stop_reason() const {
    return static_cast<StopReason>(
        stop_reason_.load(std::memory_order_relaxed));
  }
  /// Checks counted since construction or `Reset()`: the budgeted counter
  /// plus the per-thread tallies.
  std::uint64_t checks() const;
  std::size_t memory_used() const {
    return memory_used_.load(std::memory_order_relaxed);
  }
  std::size_t peak_memory() const {
    return memory_peak_.load(std::memory_order_relaxed);
  }

  /// Clears latched stop state and counters (budgets stay)
  /// so the context can drive another run. Must not race with a run.
  void Reset();

 private:
  static constexpr std::size_t kCacheLine = 64;
  /// Tallies per context. A thread counts on the tally of its first-count
  /// order modulo this; threads that share one still count exactly, since
  /// each adds with a read-modify-write.
  static constexpr std::size_t kCheckSlots = 64;
  struct alignas(kCacheLine) Tally {
    std::atomic<std::uint64_t> checks{0};
  };

  /// The stop poll; `budget_spent` says a count has spent the check budget.
  bool Poll(bool budget_spent);
  /// The calling thread's tally index.
  static std::size_t ThreadSlot();
  /// The tallies any thread may have written: those below this.
  static std::size_t SlotsInUse();

  // Read on every check; written by configuration and the stop latch.
  alignas(kCacheLine) std::atomic<int> stop_reason_{
      static_cast<int>(StopReason::kNone)};
  std::atomic<bool> cancelled_{false};
  std::atomic<bool> has_deadline_{false};
  std::atomic<std::uint64_t> check_budget_{0};
  std::chrono::steady_clock::time_point deadline_{};
  // Written by memory charges and checkpoint marks, never per check.
  alignas(kCacheLine) std::atomic<std::size_t> memory_used_{0};
  std::atomic<std::size_t> memory_peak_{0};
  std::atomic<std::size_t> memory_budget_{0};
  std::atomic<std::uint64_t> checkpoint_every_checks_{0};
  std::atomic<std::int64_t> checkpoint_every_ns_{0};
  std::atomic<std::uint64_t> checkpoint_checks_mark_{0};
  std::atomic<std::int64_t> checkpoint_time_mark_ns_{0};
  // Checks counted while a check budget was set.
  alignas(kCacheLine) std::atomic<std::uint64_t> budget_spent_{0};
  Tally tallies_[kCheckSlots];
};

}  // namespace ocdd

#endif  // OCDD_COMMON_RUN_CONTEXT_H_
