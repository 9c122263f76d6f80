// Reproduces Figure 5: a single incremental run on HORSE where columns are
// added one at a time in a fixed random order, reporting execution time
// (log scale in the paper) alongside the number of dependencies found. The
// jump when a quasi-constant column (very few distinct values) joins the
// sample is the phenomenon §5.3.2 describes.

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "core/expansion.h"
#include "core/ocd_discover.h"
#include "datagen/registry.h"

int main() {
  std::printf("Figure 5 reproduction: dependencies vs time on a single "
              "incremental HORSE run\n\n");
  ocdd::rel::CodedRelation horse = ocdd::bench::LoadCoded("HORSE");

  // One fixed random column order for the entire run (the paper's "single
  // run"), so each step adds exactly one column to the previous sample.
  ocdd::Rng rng(77);
  std::vector<std::size_t> order = rng.SampleWithoutReplacement(
      horse.num_columns(), horse.num_columns());

  std::printf("%6s %10s %12s %10s %10s %12s %10s\n", "cols", "added",
              "distinct", "time_s", "log10_t", "deps", "checks");
  std::vector<std::size_t> cols;
  for (std::size_t i = 0; i < order.size(); ++i) {
    cols.push_back(order[i]);
    if (cols.size() < 2) continue;
    ocdd::rel::CodedRelation sample = horse.ProjectColumns(cols);
    ocdd::core::OcdDiscoverOptions opts;
    ocdd::bench::BudgetContext budget(opts);
    auto result = ocdd::core::DiscoverOcds(sample, opts);
    ocdd::core::ExpansionOptions exp;
    exp.max_materialized = 1;  // only need the count
    auto expanded = ocdd::core::ExpandResults(result, sample, exp);
    double t = result.elapsed_seconds;
    std::printf("%6zu %10s %12d %10.4f %10.2f %12llu %10llu%s\n", cols.size(),
                horse.column_name(order[i]).c_str(),
                horse.column(order[i]).num_distinct, t,
                t > 0 ? std::log10(t) : -99.0,
                static_cast<unsigned long long>(expanded.total_count),
                static_cast<unsigned long long>(result.num_checks),
                result.completed ? "" : "  (TLE)");
    std::fflush(stdout);
    if (!result.completed) {
      std::printf("stopping: budget reached — the quasi-constant blow-up "
                  "point has been passed\n");
      break;
    }
  }
  return 0;
}
