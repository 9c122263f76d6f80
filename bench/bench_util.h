#ifndef OCDD_BENCH_BENCH_UTIL_H_
#define OCDD_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/prof.h"
#include "common/run_context.h"
#include "datagen/registry.h"
#include "relation/coded_relation.h"

namespace ocdd::bench {

/// Per-algorithm wall-clock budget for one run. Tuned so the default bench
/// suite finishes in minutes; `OCDD_BENCH_BUDGET` (seconds) overrides, and
/// `OCDD_SCALE=full` raises it toward the paper's 5-hour regime.
inline double RunBudgetSeconds() {
  if (const char* env = std::getenv("OCDD_BENCH_BUDGET")) {
    double v = std::atof(env);
    if (v > 0) return v;
  }
  return datagen::FullScaleRequested() ? 18000.0 : 10.0;
}

/// The run context of `options`, with a deadline `seconds` (default: the
/// bench budget) from its construction: declare one right before the run.
class BudgetContext : public RunContext {
 public:
  template <typename Options>
  explicit BudgetContext(Options& options,
                         double seconds = RunBudgetSeconds()) {
    set_time_limit_seconds(seconds);
    options.run_context = this;
  }
};

/// Loads a registry dataset at bench scale (paper rows under
/// `OCDD_SCALE=full`, scaled-down default otherwise) and encodes it.
inline rel::CodedRelation LoadCoded(const std::string& name,
                                    std::size_t rows_override = 0) {
  auto spec = datagen::FindDataset(name);
  if (!spec.ok()) {
    std::fprintf(stderr, "unknown dataset %s\n", name.c_str());
    std::exit(1);
  }
  std::size_t rows = rows_override != 0 ? rows_override
                     : datagen::FullScaleRequested() ? spec->paper_rows
                                                     : spec->default_rows;
  auto r = datagen::MakeDataset(name, rows);
  if (!r.ok()) {
    std::fprintf(stderr, "failed to build %s: %s\n", name.c_str(),
                 r.status().ToString().c_str());
    std::exit(1);
  }
  return rel::CodedRelation::Encode(*r);
}

/// Formats seconds like the paper's tables: "1.23s" / "4m07s" / "TLE".
inline std::string FormatTime(double seconds, bool completed) {
  char buf[64];
  if (!completed) {
    std::snprintf(buf, sizeof(buf), "TLE(%.0fs)", seconds);
  } else if (seconds < 60.0) {
    std::snprintf(buf, sizeof(buf), "%.2fs", seconds);
  } else {
    std::snprintf(buf, sizeof(buf), "%dm%04.1fs",
                  static_cast<int>(seconds / 60.0),
                  seconds - 60.0 * static_cast<int>(seconds / 60.0));
  }
  return buf;
}

/// One measured configuration in a machine-readable bench report. Fields
/// that a bench does not measure stay at their zero defaults and still
/// appear in the JSON, so every entry has the same shape.
struct BenchEntry {
  std::string dataset;
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::size_t threads = 0;
  bool use_sorted_partitions = false;
  double seconds = 0.0;
  std::uint64_t checks = 0;
  std::size_t ocds = 0;
  std::size_t ods = 0;
  bool completed = true;
  /// Free-form variant tag ("scalar" / "avx2" / "refine-histogram-u8" …)
  /// distinguishing configurations of the same dataset, e.g. the kernel
  /// micro-bench's backend × code-width matrix. Empty for plain sweeps.
  std::string label;
  /// Per-entry profiler counters as a JSON object (prof::ToJson), filled
  /// automatically by BenchReport::Add; empty when profiling is disabled.
  std::string profile_json;
  /// How often a time-budgeted micro entry ran its op (`seconds` is per
  /// op); 0 for entries that time whole runs.
  std::uint64_t iterations = 0;
  /// Why the run stopped (`kNone` when it completed). tools/run_bench.sh
  /// gates the counts of runs whose stop is deterministic.
  StopReason stop_reason = StopReason::kNone;
};

/// Collects `BenchEntry` records and writes them as
/// `$OCDD_BENCH_JSON_DIR/BENCH_<name>.json` (directory defaults to the
/// working directory) when flushed or destroyed. The format is one object
/// with a `bench` name and an `entries` array — see docs/performance.md.
class BenchReport {
 public:
  /// Enables the in-process profiler for the bench: every entry then
  /// carries the per-phase cycle/byte counters accumulated since the
  /// previous `Add` (i.e. for its own run) in its `profile` member.
  explicit BenchReport(std::string name) : name_(std::move(name)) {
    prof::SetEnabled(true);
    prof::Reset();
  }
  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;
  ~BenchReport() { Flush(); }

  void Add(BenchEntry entry) {
    if (entry.profile_json.empty()) {
      prof::Report r = prof::Snapshot();
      if (!r.empty()) entry.profile_json = prof::ToJson(r);
      prof::Reset();
    }
    entries_.push_back(std::move(entry));
  }

  /// Writes the report file; safe to call more than once (rewrites).
  void Flush() {
    std::string dir = ".";
    if (const char* env = std::getenv("OCDD_BENCH_JSON_DIR")) {
      if (*env != '\0') dir = env;
    }
    std::string path = dir + "/BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench report: cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"entries\": [",
                 Escaped(name_).c_str());
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const BenchEntry& e = entries_[i];
      std::fprintf(
          f,
          "%s\n    {\"dataset\": \"%s\", \"label\": \"%s\", \"rows\": %zu, "
          "\"cols\": %zu, \"threads\": %zu, \"use_sorted_partitions\": %s, "
          "\"seconds\": %.6f, \"checks\": %llu, \"ocds\": %zu, "
          "\"ods\": %zu, \"completed\": %s, \"stop_reason\": \"%s\", "
          "\"iterations\": %llu",
          i == 0 ? "" : ",", Escaped(e.dataset).c_str(),
          Escaped(e.label).c_str(), e.rows, e.cols, e.threads,
          e.use_sorted_partitions ? "true" : "false", e.seconds,
          static_cast<unsigned long long>(e.checks), e.ocds, e.ods,
          e.completed ? "true" : "false", StopReasonName(e.stop_reason),
          static_cast<unsigned long long>(e.iterations));
      if (!e.profile_json.empty()) {
        std::fprintf(f, ", \"profile\": %s", e.profile_json.c_str());
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::fprintf(stderr, "bench report written to %s\n", path.c_str());
  }

 private:
  static std::string Escaped(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  std::string name_;
  std::vector<BenchEntry> entries_;
};

/// Parses a comma-separated positive-integer list from the environment
/// (e.g. `OCDD_BENCH_THREADS=1,2,4,8`); returns `fallback` when unset or
/// unparsable. Lets tools/run_bench.sh drive sweeps without rebuilds.
inline std::vector<std::size_t> SizeListFromEnv(
    const char* var, std::vector<std::size_t> fallback) {
  const char* env = std::getenv(var);
  if (env == nullptr || *env == '\0') return fallback;
  std::vector<std::size_t> out;
  std::size_t current = 0;
  bool have_digit = false;
  for (const char* p = env;; ++p) {
    if (*p >= '0' && *p <= '9') {
      current = current * 10 + static_cast<std::size_t>(*p - '0');
      have_digit = true;
    } else if (*p == ',' || *p == '\0') {
      if (!have_digit || current == 0) return fallback;
      out.push_back(current);
      current = 0;
      have_digit = false;
      if (*p == '\0') break;
    } else {
      return fallback;
    }
  }
  return out;
}

}  // namespace ocdd::bench

#endif  // OCDD_BENCH_BENCH_UTIL_H_
