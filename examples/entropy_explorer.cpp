// Entropy-guided column selection (paper §5.4): wide tables with
// quasi-constant columns blow up the OCD search; ranking columns by entropy
// and profiling only the most diverse ones keeps discovery tractable while
// focusing on the most informative attributes.
//
//   $ ./examples/entropy_explorer [num_interesting_columns]

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/entropy.h"
#include "core/ocd_discover.h"
#include "datagen/generators.h"
#include "relation/coded_relation.h"

int main(int argc, char** argv) {
  std::size_t keep = argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1]))
                              : 12;
  ocdd::rel::CodedRelation flight =
      ocdd::rel::CodedRelation::Encode(ocdd::datagen::MakeFlight(1000, 42));
  std::printf("FLIGHT analogue: %zu rows x %zu columns\n\n",
              flight.num_rows(), flight.num_columns());

  auto ranked = ocdd::core::RankColumnsByEntropy(flight);
  std::printf("entropy spectrum (top 10 / bottom 5):\n");
  for (std::size_t i = 0; i < 10 && i < ranked.size(); ++i) {
    std::printf("  %-10s H=%7.3f distinct=%d\n",
                flight.column_name(ranked[i].id).c_str(), ranked[i].entropy,
                ranked[i].num_distinct);
  }
  std::printf("  ...\n");
  for (std::size_t i = ranked.size() - 5; i < ranked.size(); ++i) {
    std::printf("  %-10s H=%7.3f distinct=%d\n",
                flight.column_name(ranked[i].id).c_str(), ranked[i].entropy,
                ranked[i].num_distinct);
  }

  std::printf("\nprofiling only the %zu most diverse columns:\n", keep);
  std::vector<ocdd::rel::ColumnId> interesting =
      ocdd::core::TopEntropyColumns(flight, keep);
  ocdd::rel::CodedRelation subset = flight.ProjectColumns(interesting);
  ocdd::core::OcdDiscoverOptions opts;
  ocdd::RunContext budget;
  budget.set_time_limit_seconds(60);
  opts.run_context = &budget;
  opts.num_threads = 4;
  auto result = ocdd::core::DiscoverOcds(subset, opts);
  std::printf("  %zu OCDs, %zu ODs in %.3fs with %llu checks%s\n",
              result.ocds.size(), result.ods.size(), result.elapsed_seconds,
              static_cast<unsigned long long>(result.num_checks),
              result.completed ? "" : " (budget hit)");
  for (std::size_t i = 0; i < result.ocds.size() && i < 10; ++i) {
    std::printf("    %s\n", result.ocds[i].ToString(subset).c_str());
  }

  std::printf("\nfor contrast, the same budget on the full 109-column "
              "table:\n");
  ocdd::core::OcdDiscoverOptions full_opts = opts;
  ocdd::RunContext full_budget;
  full_budget.set_time_limit_seconds(10);
  full_opts.run_context = &full_budget;
  auto full = ocdd::core::DiscoverOcds(flight, full_opts);
  std::printf("  %s after %.1fs and %llu checks (%zu OCDs so far)\n",
              full.completed ? "completed" : "still far from done",
              full.elapsed_seconds,
              static_cast<unsigned long long>(full.num_checks),
              full.ocds.size());
  return 0;
}
