// Reproduces Table 8 and Figure 6: multithreaded execution times of
// OCDDISCOVER, plus the times normalized to the single-thread run. The
// paper's observations to look for:
//  * LINEITEM (few checks, many rows) gains more than LETTER (few checks,
//    few rows);
//  * DBTESMA (many checks) spreads its candidate workload best.
//
// Beyond the paper's figure, the sweep runs each configuration in both
// check modes — sort-based checks and cached sorted partitions — and
// writes every measurement to BENCH_fig6_threads.json (see
// docs/performance.md). Overridable without rebuilding:
//   OCDD_BENCH_THREADS=1,2,4,8      thread counts to sweep
//   OCDD_BENCH_DATASETS=A,B,C       registry datasets to run
//   OCDD_BENCH_JSON_DIR=dir         where the JSON report lands

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/ocd_discover.h"
#include "datagen/registry.h"

namespace {

std::vector<std::string> DatasetsFromEnv() {
  std::vector<std::string> out;
  const char* env = std::getenv("OCDD_BENCH_DATASETS");
  std::string list = env != nullptr && *env != '\0'
                         ? env
                         : "LETTER,LINEITEM,DBTESMA";
  std::string current;
  for (char c : list) {
    if (c == ',') {
      if (!current.empty()) out.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) out.push_back(current);
  return out;
}

}  // namespace

int main() {
  std::printf("Table 8 + Figure 6 reproduction: thread scalability\n\n");
  const std::vector<std::size_t> threads =
      ocdd::bench::SizeListFromEnv("OCDD_BENCH_THREADS", {1, 2, 4, 8});
  const std::vector<std::string> datasets = DatasetsFromEnv();
  ocdd::bench::BenchReport report("fig6_threads");

  for (bool partitions : {false, true}) {
    std::printf("check mode: %s\n",
                partitions ? "sorted partitions" : "sort-based");
    std::printf("%-10s", "dataset");
    for (std::size_t t : threads) std::printf(" %9zut", t);
    std::printf("   (seconds)\n");

    std::vector<std::vector<double>> all_times;
    for (const std::string& name : datasets) {
      ocdd::rel::CodedRelation r = ocdd::bench::LoadCoded(name);
      std::vector<double> times;
      std::printf("%-10s", name.c_str());
      for (std::size_t t : threads) {
        ocdd::core::OcdDiscoverOptions opts;
        opts.num_threads = t;
        opts.use_sorted_partitions = partitions;
        ocdd::bench::BudgetContext budget(opts);
        auto result = ocdd::core::DiscoverOcds(r, opts);
        times.push_back(result.elapsed_seconds);
        std::printf(" %10.3f", result.elapsed_seconds);
        std::fflush(stdout);
        report.Add({name, r.num_rows(), r.num_columns(), t, partitions,
                    result.elapsed_seconds, result.num_checks,
                    result.ocds.size(), result.ods.size(), result.completed,
                    {}, {}, 0, result.stop_reason});
      }
      std::printf("\n");
      all_times.push_back(times);
    }

    std::printf("\nNormalized to the 1-thread run (Figure 6 series):\n");
    std::printf("%-10s", "dataset");
    for (std::size_t t : threads) std::printf(" %9zut", t);
    std::printf("\n");
    for (std::size_t d = 0; d < all_times.size(); ++d) {
      std::printf("%-10s", datasets[d].c_str());
      for (double t : all_times[d]) {
        std::printf(" %10.3f",
                    all_times[d][0] > 0 ? t / all_times[d][0] : 0.0);
      }
      std::printf("\n");
    }
    std::printf("\n");
  }
  return 0;
}
