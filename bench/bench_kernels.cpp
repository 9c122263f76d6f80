// Kernel micro-benchmarks behind the raw-speed push: the vectorized check
// kernels (extremes scan, sort-walk first-diff), the width-adaptive refine
// paths, and — as the headline number — a full single-thread OCDDISCOVER
// run over LATTICE, per SIMD backend.
//
// Three sections, all landing in BENCH_kernels.json:
//
//  1. `full-lattice-<backend>`: LATTICE at 100k rows (the acceptance
//     target: < 4s single-thread with cached sorted partitions), once per
//     available backend. The `pre-refactor-baseline` entry records the
//     measurement taken at the commit *before* the compressed-column /
//     SIMD work (same machine, same configuration, standalone harness):
//     10.57s, 50030 checks, 9400 OCDs — committed so the before/after is
//     visible in one file.
//
//  2. `extremes-<width>-<backend>`: ListPartition::CheckOd over synthetic
//     two-column relations whose cardinalities pin the partition storage
//     to u8 / u16 / u32, isolating the packed MinMax fill + scan kernels.
//     `firstdiff-…-<backend>` does the same for the sort-based checker's
//     walk (OrderChecker), in the single-attribute fast path and the
//     multi-attribute gather path.
//
//  3. `refine-<path>-<width>`: ListPartition::Refine by histogram and
//     counting path per storage width (refine is scalar on every backend,
//     so no backend dimension).
//
//  4. `ingest-lineitem` / `encode-lineitem`: the CSV front end of every
//     discovery run on LINEITEM 50k x 16 (registry seed 42, written as a
//     CSV file first) — `rel::ReadCsvFileWithReport` and
//     `CodedRelation::Encode`. Seconds are the median of 7 runs; `checks`
//     is a result count instead of an iteration count (rows ingested; the
//     distinct codes summed over all columns), so a drift there means the
//     front end read or ranked the data differently.
//
// Sections 2 and 3 report seconds *per iteration* (the loop runs until a
// fixed wall budget) and the loop count in `iterations`. Their `checks` is
// fixed per op, so `tools/run_bench.sh` can compare it: 1 for the check
// kernels (one check per op), the groups of the refined partition for
// refine. Every entry carries the profiler's per-phase counters via
// BenchReport. Overridable without
// rebuilding:
//   OCDD_BENCH_ROWS=100000          rows for the full LATTICE run
//   OCDD_BENCH_MICRO_ROWS=1048576   rows for the synthetic kernels
//   OCDD_BENCH_JSON_DIR=dir         where the JSON report lands

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/prof.h"
#include "common/simd_dispatch.h"
#include "core/checker.h"
#include "core/list_partition.h"
#include "core/ocd_discover.h"
#include "datagen/generators.h"
#include "datagen/registry.h"
#include "relation/csv.h"

namespace {

using ocdd::core::ListPartition;
using ocdd::core::OrderChecker;
using ocdd::core::RefinePath;
using ocdd::core::RefineScratch;
using ocdd::rel::CodedColumn;
using ocdd::rel::CodedRelation;

std::size_t RowsFromEnv(const char* var, std::size_t fallback) {
  if (const char* env = std::getenv(var)) {
    long long v = std::atoll(env);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return fallback;
}

std::vector<ocdd::simd::Backend> AvailableBackends() {
  std::vector<ocdd::simd::Backend> out = {ocdd::simd::Backend::kScalar};
  if (ocdd::simd::CpuHasAvx2()) out.push_back(ocdd::simd::Backend::kAvx2);
  return out;
}

/// Synthetic relation of `cols` random columns with `domain` distinct
/// values each (every code guaranteed present, so the dense-rank invariant
/// holds and the partition width is pinned by `domain`).
CodedRelation MakeSynthetic(std::size_t rows, std::int32_t domain,
                            std::size_t cols, std::uint64_t seed) {
  std::vector<CodedColumn> columns(cols);
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ULL + 1;
  for (std::size_t c = 0; c < cols; ++c) {
    CodedColumn& col = columns[c];
    char name[16];
    std::snprintf(name, sizeof(name), "c%zu", c);
    col.name = name;
    col.num_distinct = domain;
    col.codes.resize(rows);
    for (std::size_t i = 0; i < rows; ++i) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      col.codes[i] =
          static_cast<std::int32_t>((state >> 33) % static_cast<std::uint64_t>(domain));
    }
    for (std::int32_t v = 0; v < domain && static_cast<std::size_t>(v) < rows;
         ++v) {
      col.codes[v] = v;
    }
  }
  return CodedRelation::FromColumns(std::move(columns));
}

/// Runs `fn` until ~0.3s of wall clock (at least 3 times) and returns
/// {seconds per iteration, iterations}.
template <typename Fn>
std::pair<double, std::uint64_t> TimeLoop(Fn&& fn) {
  using Clock = std::chrono::steady_clock;
  std::uint64_t iters = 0;
  auto start = Clock::now();
  double elapsed = 0.0;
  do {
    fn();
    ++iters;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < 0.3 || iters < 3);
  return {elapsed / static_cast<double>(iters), iters};
}

/// Runs `fn` `runs` times and returns the median wall seconds.
template <typename Fn>
double MedianSeconds(int runs, Fn&& fn) {
  using Clock = std::chrono::steady_clock;
  std::vector<double> seconds;
  for (int i = 0; i < runs; ++i) {
    const auto start = Clock::now();
    fn();
    seconds.push_back(
        std::chrono::duration<double>(Clock::now() - start).count());
  }
  std::sort(seconds.begin(), seconds.end());
  return seconds[seconds.size() / 2];
}

const char* WidthName(ocdd::rel::CodeWidth w) {
  switch (w) {
    case ocdd::rel::CodeWidth::k8:
      return "u8";
    case ocdd::rel::CodeWidth::k16:
      return "u16";
    case ocdd::rel::CodeWidth::k32:
      break;
  }
  return "u32";
}

}  // namespace

int main() {
  const std::size_t full_rows = RowsFromEnv("OCDD_BENCH_ROWS", 100000);
  const std::size_t micro_rows =
      RowsFromEnv("OCDD_BENCH_MICRO_ROWS", std::size_t{1} << 20);
  const std::vector<ocdd::simd::Backend> backends = AvailableBackends();
  ocdd::bench::BenchReport report("kernels");

  std::printf("check-kernel micro-bench (backends:");
  for (auto b : backends) std::printf(" %s", ocdd::simd::BackendName(b));
  std::printf(")\n\n");

  // --- Section 1: full LATTICE run per backend, plus the committed
  // pre-refactor measurement for the before/after diff.
  {
    ocdd::bench::BenchEntry baseline;
    baseline.dataset = "LATTICE";
    baseline.label = "pre-refactor-baseline";
    baseline.rows = 100000;
    baseline.cols = 8;
    baseline.threads = 1;
    baseline.use_sorted_partitions = true;
    baseline.seconds = 10.57;  // measured at the parent commit, same box
    baseline.checks = 50030;
    baseline.ocds = 9400;
    baseline.ods = 0;
    baseline.profile_json.clear();
    ocdd::prof::Reset();  // keep the synthetic entry's profile empty
    report.Add(std::move(baseline));
  }

  {
    auto relation =
        CodedRelation::Encode(ocdd::datagen::MakeLattice(full_rows));
    for (auto backend : backends) {
      ocdd::simd::ForceBackendForTest(backend);
      ocdd::core::OcdDiscoverOptions opts;
      opts.num_threads = 1;
      opts.max_partition_cache_bytes = std::size_t{2} << 30;
      ocdd::bench::BudgetContext budget(
          opts, std::max(ocdd::bench::RunBudgetSeconds(), 120.0));
      auto result = ocdd::core::DiscoverOcds(relation, opts);
      std::printf("full LATTICE %zu rows, %-6s: %8.3fs  (%llu checks, "
                  "%zu ocds, %zu ods)%s\n",
                  full_rows, ocdd::simd::BackendName(backend),
                  result.elapsed_seconds,
                  static_cast<unsigned long long>(result.num_checks),
                  result.ocds.size(), result.ods.size(),
                  result.completed ? "" : "  [TLE]");
      ocdd::bench::BenchEntry e;
      e.dataset = "LATTICE";
      e.label = std::string("full-lattice-") +
                ocdd::simd::BackendName(backend);
      e.rows = relation.num_rows();
      e.cols = relation.num_columns();
      e.threads = 1;
      e.use_sorted_partitions = true;
      e.seconds = result.elapsed_seconds;
      e.checks = result.num_checks;
      e.ocds = result.ocds.size();
      e.ods = result.ods.size();
      e.completed = result.completed;
      e.stop_reason = result.stop_reason;
      report.Add(std::move(e));
    }
    ocdd::simd::Refresh();
  }

  // --- Section 2a: extremes fill + scan per storage width and backend.
  const std::int32_t kDomains[] = {200, 1000, 100000};  // u8 / u16 / u32
  std::printf("\nextremes kernel (ListPartition::CheckOd, %zu rows):\n",
              micro_rows);
  for (std::int32_t domain : kDomains) {
    auto relation = MakeSynthetic(micro_rows, domain, 2, domain);
    ListPartition lhs = ListPartition::ForColumn(relation, 0);
    ListPartition rhs = ListPartition::ForColumn(relation, 1);
    const char* width = WidthName(lhs.width());
    for (auto backend : backends) {
      ocdd::simd::ForceBackendForTest(backend);
      ocdd::prof::Reset();
      volatile bool sink = false;
      auto [secs, iters] = TimeLoop([&] {
        auto outcome = ListPartition::CheckOd(lhs, rhs);
        sink = sink || outcome.has_swap;
      });
      std::printf("  %-4s %-6s: %9.3f ms/check  (%llu iters)\n", width,
                  ocdd::simd::BackendName(backend), secs * 1e3,
                  static_cast<unsigned long long>(iters));
      ocdd::bench::BenchEntry e;
      e.dataset = "synthetic";
      e.label = std::string("extremes-") + width + "-" +
                ocdd::simd::BackendName(backend);
      e.rows = micro_rows;
      e.cols = 2;
      e.threads = 1;
      e.use_sorted_partitions = true;
      e.seconds = secs;
      e.checks = 1;
      e.iterations = iters;
      report.Add(std::move(e));
    }
  }
  ocdd::simd::Refresh();

  // --- Section 2b: sort-walk first-diff per backend — the single-attr
  // fast path and the multi-attribute gather path of the sort-based
  // checker. The sort dominates each call; the backend delta isolates the
  // walk.
  std::printf("\nfirst-diff walk (OrderChecker, %zu rows):\n", micro_rows);
  {
    auto relation = MakeSynthetic(micro_rows, 1000, 4, 7);
    OrderChecker checker(relation);
    struct Case {
      const char* name;
      ocdd::od::AttributeList x, y;
    };
    const Case cases[] = {
        {"firstdiff-single", {0}, {1}},
        {"firstdiff-multi", {0, 1}, {2, 3}},
    };
    for (const Case& c : cases) {
      for (auto backend : backends) {
        ocdd::simd::ForceBackendForTest(backend);
        ocdd::prof::Reset();
        volatile bool sink = false;
        auto [secs, iters] = TimeLoop([&] {
          bool swap =
              checker.CheckOd(c.x, c.y, /*early_exit=*/false).has_swap;
          sink = sink || swap;
        });
        std::printf("  %-17s %-6s: %9.3f ms/check  (%llu iters)\n", c.name,
                    ocdd::simd::BackendName(backend), secs * 1e3,
                    static_cast<unsigned long long>(iters));
        ocdd::bench::BenchEntry e;
        e.dataset = "synthetic";
        e.label = std::string(c.name) + "-" +
                  ocdd::simd::BackendName(backend);
        e.rows = micro_rows;
        e.cols = relation.num_columns();
        e.threads = 1;
        e.seconds = secs;
        e.checks = 1;
        e.iterations = iters;
        report.Add(std::move(e));
      }
    }
  }
  ocdd::simd::Refresh();

  // --- Section 3: refine paths per width (scalar on every backend).
  std::printf("\nrefine paths (ListPartition::Refine, %zu rows):\n",
              micro_rows);
  for (std::int32_t domain : kDomains) {
    auto relation = MakeSynthetic(micro_rows, domain, 2, domain + 1);
    ListPartition parent = ListPartition::ForColumn(relation, 0);
    const char* width = WidthName(parent.width());
    const struct {
      const char* name;
      RefinePath path;
    } paths[] = {
        {"histogram", RefinePath::kHistogram},
        {"counting", RefinePath::kCounting},
    };
    for (const auto& p : paths) {
      // The histogram path's bucket table is g·d entries; skip it where
      // the auto heuristic would never pick it (u32 × u32 would be ~40GB).
      if (p.path == RefinePath::kHistogram &&
          static_cast<std::int64_t>(parent.num_groups()) * domain >
              static_cast<std::int64_t>(8 * micro_rows)) {
        std::printf("  refine-%-10s %-4s: skipped (g*d too large)\n", p.name,
                    width);
        continue;
      }
      RefineScratch scratch;
      ocdd::prof::Reset();
      std::int32_t groups = 0;
      // The parent is named (id 0) so the loop reuses its rank histogram,
      // as the partition cache's sibling refinements do.
      auto [secs, iters] = TimeLoop([&] {
        ListPartition refined =
            parent.Refine(relation, 1, &scratch, p.path, /*self=*/0);
        groups = refined.num_groups();
      });
      std::printf("  refine-%-10s %-4s: %9.3f ms/refine  (%llu iters)\n",
                  p.name, width, secs * 1e3,
                  static_cast<unsigned long long>(iters));
      ocdd::bench::BenchEntry e;
      e.dataset = "synthetic";
      e.label = std::string("refine-") + p.name + "-" + width;
      e.rows = micro_rows;
      e.cols = 2;
      e.threads = 1;
      e.use_sorted_partitions = true;
      e.seconds = secs;
      e.checks = static_cast<std::uint64_t>(groups);
      e.iterations = iters;
      report.Add(std::move(e));
    }
  }

  // --- Section 4: the CSV front end, LINEITEM 50k x 16.
  {
    constexpr std::size_t kRows = 50000;
    constexpr int kRuns = 7;
    auto lineitem = ocdd::datagen::MakeDataset("LINEITEM", kRows, 42);
    const std::string csv =
        (std::filesystem::temp_directory_path() /
         ("ocdd_bench_lineitem_" + std::to_string(::getpid()) + ".csv"))
            .string();
    if (!lineitem.ok() || !ocdd::rel::WriteCsvFile(*lineitem, csv).ok()) {
      std::fprintf(stderr, "cannot write the LINEITEM CSV to %s\n",
                   csv.c_str());
      return 1;
    }
    std::printf("\nCSV front end (LINEITEM %zu rows, median of %d):\n", kRows,
                kRuns);

    ocdd::prof::Reset();
    ocdd::rel::CsvRead read;
    bool read_ok = true;
    const double ingest_s = MedianSeconds(kRuns, [&] {
      auto r = ocdd::rel::ReadCsvFileWithReport(csv);
      read_ok = read_ok && r.ok();
      if (r.ok()) read = std::move(*r);
    });
    std::filesystem::remove(csv);
    if (!read_ok) {
      std::fprintf(stderr, "LINEITEM CSV did not read back\n");
      return 1;
    }
    std::printf("  ingest-lineitem: %9.3f ms  (%llu rows)\n", ingest_s * 1e3,
                static_cast<unsigned long long>(read.report.rows_ingested));
    ocdd::bench::BenchEntry ingest;
    ingest.dataset = "LINEITEM";
    ingest.label = "ingest-lineitem";
    ingest.rows = kRows;
    ingest.cols = read.relation.num_columns();
    ingest.threads = 1;
    ingest.seconds = ingest_s;
    ingest.checks = read.report.rows_ingested;
    report.Add(std::move(ingest));

    CodedRelation coded;
    const double encode_s = MedianSeconds(
        kRuns, [&] { coded = CodedRelation::Encode(read.relation); });
    std::uint64_t distinct = 0;
    for (const CodedColumn& c : coded.columns()) {
      distinct += static_cast<std::uint64_t>(c.num_distinct);
    }
    std::printf("  encode-lineitem: %9.3f ms  (%llu distinct codes)\n",
                encode_s * 1e3, static_cast<unsigned long long>(distinct));
    ocdd::bench::BenchEntry encode;
    encode.dataset = "LINEITEM";
    encode.label = "encode-lineitem";
    encode.rows = kRows;
    encode.cols = coded.num_columns();
    encode.threads = 1;
    encode.seconds = encode_s;
    encode.checks = distinct;
    report.Add(std::move(encode));
  }

  return 0;
}
