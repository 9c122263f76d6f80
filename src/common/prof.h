#ifndef OCDD_COMMON_PROF_H_
#define OCDD_COMMON_PROF_H_

#include <cstdint>
#include <string>
#include <vector>

namespace ocdd::prof {

/// Lightweight in-process cycle/byte profiler for the discovery hot path,
/// in the spirit of ddprof's always-compiled scoped instrumentation: a
/// fixed set of phases, thread-local counter slabs (no locks on the hot
/// path), TSC-based scoped timers, and explicit byte/allocation counters
/// at the few sites that matter.
///
/// Cost model: when disabled (the default) every probe is one relaxed
/// atomic load and a predictable branch. When enabled, a scope costs two
/// `rdtsc` reads plus a handful of relaxed adds — cheap enough to leave in
/// per-candidate-check granularity, far too expensive for per-row use (so
/// kernels report bytes per *call*, never per element).
///
/// Enablement: `SetEnabled(true)` (the CLI `--profile` flag, benches), or
/// the `OCDD_PROFILE=1` environment variable, consulted once at the first
/// probe. Counters are process-global; callers that want a per-run report
/// `Reset()` before and `Snapshot()` after the run.
///
/// Thread-safety: counters are per-thread slabs registered in a global
/// list; `Snapshot()` sums them with relaxed atomics, so concurrent
/// probes never block and never race. A thread that exits folds its slab
/// into a retired accumulator first, so no samples are lost.

/// The instrumented phases. Keep in sync with `PhaseName`.
enum class Phase : std::uint8_t {
  kIngest = 0,     // CSV read, scan, type inference and column fill
  kSynthesize,     // a registry dataset's generation (a source, not a CSV)
  kEncode,         // dictionary encoding / narrow-mirror builds
  kPlan,           // per-level partition planning (sequential)
  kRefine,         // partition refinement kernels
  kPublish,        // partition cache publish (shrink + budget + insert)
  kCheckFill,      // extremes fill pass of the partition checks
  kCheckScan,      // extremes group scan (split/swap classification)
  kSortIndex,      // row-index sorts of the sort-based checker
  kSortCheck,      // adjacent-pair walks of the sort-based checker
  kGenerate,       // candidate emission + next-level generation
  kCheckpoint,     // snapshot encode/write
  kSerialize,      // result report rendering (JSON)
  kNumPhases,
};

const char* PhaseName(Phase phase);

bool Enabled();
void SetEnabled(bool enabled);

/// Zeroes every counter (live slabs and the retired accumulator).
void Reset();

/// Adds `bytes` of data traffic to a phase (call-granular, not per row).
void AddBytes(Phase phase, std::uint64_t bytes);

/// Explicit allocation hook: the few sites that materialize long-lived
/// buffers (partition publish, snapshot blobs) report them here so the
/// report shows where the bytes went without a global operator-new hook.
void AddAlloc(std::uint64_t bytes);

/// Records the rows the checks of a run read beside the input's rows: a
/// lattice walk's checker reads one row per distinct tuple when that
/// halves the input (core/partition_checker.h). The last call wins.
void SetRows(std::uint64_t checked, std::uint64_t input);

/// RAII scoped timer attributing elapsed TSC cycles (and one call) to a
/// phase. Nesting is allowed; each scope charges its own wall span, so
/// nested phases double-count against their parents by design (the report
/// is a where-does-time-go breakdown, not a strict tree).
class ScopedTimer {
 public:
  explicit ScopedTimer(Phase phase);
  ~ScopedTimer();

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Phase phase_;
  bool armed_;
  std::uint64_t start_;
};

struct PhaseStats {
  const char* name = "";
  std::uint64_t cycles = 0;
  double seconds = 0.0;
  std::uint64_t bytes = 0;
  std::uint64_t calls = 0;
};

struct Report {
  bool enabled = false;
  /// Calibrated TSC frequency used to convert cycles to seconds.
  double cycles_per_second = 0.0;
  /// Phases with at least one call, in enum order.
  std::vector<PhaseStats> phases;
  std::uint64_t alloc_bytes = 0;
  std::uint64_t alloc_calls = 0;
  /// Rows the checks read and the input's rows (0 input: no checker ran).
  std::uint64_t rows_checked = 0;
  std::uint64_t rows_input = 0;
  /// Wall time of the whole run and the part of it no phase accounts for;
  /// set by a caller that knows both (0 wall: not measured).
  double wall_seconds = 0.0;
  double unattributed_seconds = 0.0;
  /// Seconds of the algorithm run alone, and how busy its threads were:
  /// Σ CPU seconds of the phases inside the run ÷ (threads × run seconds).
  /// Set by a caller that knows both (0 run: not measured).
  double run_seconds = 0.0;
  double busy_ratio = 0.0;

  bool empty() const { return phases.empty() && alloc_calls == 0; }
};

/// Seconds charged to `phase` in `report` (0 when it never ran).
double PhaseSeconds(const Report& report, Phase phase);

/// Sums every thread's counters. Cheap enough to call repeatedly.
Report Snapshot();

/// `{"cycles_per_second":...,"phases":[{"name":...,"cycles":...,
///   "seconds":...,"bytes":...,"calls":...},...],
///   "alloc":{"bytes":...,"calls":...}}`, plus `"rows":{"checked":...,
/// "input":...}` when a checker ran, `"wall_seconds"` and
/// `"unattributed_seconds"` when the wall time was measured, and
/// `"run_seconds"` and `"busy_ratio"` when the run time was.
std::string ToJson(const Report& report);

}  // namespace ocdd::prof

#endif  // OCDD_COMMON_PROF_H_
