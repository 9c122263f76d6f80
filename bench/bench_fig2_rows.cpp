// Reproduces Figure 2: row scalability of OCDDISCOVER on LINEITEM and on a
// 20-column random projection of NCVOTER. Ten samples from 10% to 100% of
// the rows, averaged over repetitions; expect near-linear growth.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "core/ocd_discover.h"
#include "datagen/registry.h"

namespace {

using ocdd::bench::LoadCoded;

void RowSweep(const char* name, const ocdd::rel::CodedRelation& full,
              int repetitions) {
  std::printf("\n%s (%zu rows, %zu cols), avg of %d runs\n", name,
              full.num_rows(), full.num_columns(), repetitions);
  std::printf("%8s %10s %12s %14s %10s %8s\n", "pct", "rows", "time_s",
              "partitions_s", "checks", "ocds");
  for (int pct = 10; pct <= 100; pct += 10) {
    std::size_t rows = full.num_rows() * static_cast<std::size_t>(pct) / 100;
    ocdd::rel::CodedRelation sample = full.HeadRows(rows);
    double total = 0.0;
    double total_part = 0.0;
    std::uint64_t checks = 0;
    std::size_t ocds = 0;
    bool completed = true;
    for (int rep = 0; rep < repetitions; ++rep) {
      // First series: the paper's fresh sort per check (§4.3).
      ocdd::core::OcdDiscoverOptions opts;
      ocdd::bench::BudgetContext budget(opts);
      opts.use_sorted_partitions = false;
      auto result = ocdd::core::DiscoverOcds(sample, opts);
      total += result.elapsed_seconds;
      checks = result.num_checks;
      ocds = result.ocds.size();
      completed = completed && result.completed;

      // Second series: the sorted-partition backend the paper's section
      // 5.3.1 discusses — per-check cost drops from O(m log m) to O(m).
      ocdd::core::OcdDiscoverOptions part_opts;
      ocdd::bench::BudgetContext part_budget(part_opts);
      auto part = ocdd::core::DiscoverOcds(sample, part_opts);
      total_part += part.elapsed_seconds;
    }
    std::printf("%7d%% %10zu %12.4f %14.4f %10llu %8zu%s\n", pct, rows,
                total / repetitions, total_part / repetitions,
                static_cast<unsigned long long>(checks),
                ocds, completed ? "" : "  (TLE)");
    std::fflush(stdout);
  }
}

}  // namespace

int main() {
  std::printf("Figure 2 reproduction: scalability in the number of rows\n");
  int reps = ocdd::datagen::FullScaleRequested() ? 5 : 2;

  ocdd::rel::CodedRelation lineitem = LoadCoded("LINEITEM");
  RowSweep("LINEITEM", lineitem, reps);

  // NCVOTER restricted to 20 random columns (paper §5.3.1). Our analogue
  // has 19 columns, so the projection is a random shuffle of all of them.
  ocdd::rel::CodedRelation ncvoter = LoadCoded("NCVOTER_1K");
  ocdd::Rng rng(1234);
  std::vector<std::size_t> cols =
      rng.SampleWithoutReplacement(ncvoter.num_columns(),
                                   std::min<std::size_t>(
                                       20, ncvoter.num_columns()));
  ocdd::rel::CodedRelation projected = ncvoter.ProjectColumns(cols);
  RowSweep("NCVOTER (random 20-col projection)", projected, reps);
  return 0;
}
