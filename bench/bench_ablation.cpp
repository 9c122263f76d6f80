// Ablation study of OCDDISCOVER's design choices (DESIGN.md §4):
//  1. Theorem-3.9 pruning rules on/off — candidate and check counts;
//  2. column reduction on/off — effect of constants/equivalences;
//  3. Theorem-4.1 single check vs naive double check — measured by
//     bench_micro_checker; here we report the end-to-end check counts.

#include <cstdio>

#include "bench_util.h"
#include "core/ocd_discover.h"
#include "datagen/registry.h"

namespace {

void RunAblation(const char* name, std::size_t rows, std::size_t max_level) {
  ocdd::rel::CodedRelation r = ocdd::bench::LoadCoded(name, rows);
  std::printf("\n%s (%zu rows, %zu cols, level cap %zu)\n", name, r.num_rows(),
              r.num_columns(), max_level);
  std::printf("%-28s %12s %12s %10s %8s\n", "configuration", "candidates",
              "checks", "time_s", "ocds");

  struct Config {
    const char* label;
    bool pruning;
    bool reduction;
  };
  const Config configs[] = {
      {"full (pruning+reduction)", true, true},
      {"no OD pruning", false, true},
      {"no column reduction", true, false},
      {"neither", false, false},
  };
  for (const Config& cfg : configs) {
    ocdd::core::OcdDiscoverOptions opts;
    opts.apply_od_pruning = cfg.pruning;
    opts.apply_column_reduction = cfg.reduction;
    opts.max_level = max_level;
    ocdd::bench::BudgetContext budget(opts);
    auto result = ocdd::core::DiscoverOcds(r, opts);
    std::printf("%-28s %12llu %12llu %10.4f %8zu%s\n", cfg.label,
                static_cast<unsigned long long>(result.candidates_generated),
                static_cast<unsigned long long>(result.num_checks),
                result.elapsed_seconds, result.ocds.size(),
                result.completed ? "" : "  (TLE)");
    std::fflush(stdout);
  }
}

}  // namespace

int main() {
  std::printf("Ablation: pruning rules, column reduction\n");
  RunAblation("DBTESMA", 2000, 4);
  RunAblation("HORSE", 0, 3);
  RunAblation("NCVOTER_1K", 0, 3);
  std::printf("\nExpectation: pruning cuts candidates/checks with unchanged "
              "minimal results;\ncolumn reduction removes constant and "
              "equivalent columns before the factorial search.\n");
  return 0;
}
