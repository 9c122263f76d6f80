// Reproduces Figure 7: FLIGHT columns sorted by decreasing entropy are
// added one band at a time; execution time stays modest while the diverse
// columns dominate, then jumps by orders of magnitude when the
// quasi-constant (2–4 distinct values) columns join — the cliff §5.4 uses
// to motivate entropy-guided column selection.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/entropy.h"
#include "core/ocd_discover.h"
#include "datagen/registry.h"

int main() {
  std::printf("Figure 7 reproduction: entropy-ordered column prefixes on "
              "FLIGHT\n\n");
  ocdd::rel::CodedRelation flight = ocdd::bench::LoadCoded("FLIGHT_1K");
  std::vector<ocdd::core::ColumnEntropyInfo> ranked =
      ocdd::core::RankColumnsByEntropy(flight);

  std::printf("%6s %12s %10s %10s %12s %10s\n", "cols", "min_distinct",
              "entropy", "time_s", "checks", "ocds");
  std::vector<std::size_t> cols;
  std::size_t step = 5;
  for (std::size_t k = 0; k < ranked.size(); ++k) {
    cols.push_back(ranked[k].id);
    bool report = cols.size() % step == 0 || k + 1 == ranked.size() ||
                  (ranked[k].num_distinct <= 4 && cols.size() >= 40);
    if (cols.size() < 2 || !report) continue;
    ocdd::rel::CodedRelation sample = flight.ProjectColumns(cols);
    ocdd::core::OcdDiscoverOptions opts;
    ocdd::bench::BudgetContext budget(opts);
    auto result = ocdd::core::DiscoverOcds(sample, opts);
    std::printf("%6zu %12d %10.3f %10.4f %12llu %10zu%s\n", cols.size(),
                ranked[k].num_distinct, ranked[k].entropy,
                result.elapsed_seconds,
                static_cast<unsigned long long>(result.num_checks),
                result.ocds.size(), result.completed ? "" : "  (TLE)");
    std::fflush(stdout);
    if (!result.completed) {
      std::printf("stopping: budget reached after adding a %d-distinct-value "
                  "column — the Figure 7 cliff\n", ranked[k].num_distinct);
      break;
    }
  }
  return 0;
}
