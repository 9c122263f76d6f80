// Multi-threaded discovery (paper §4.2.2): the candidate tree's branches
// are independent, so each level's checks shard across a worker pool. This
// example runs the same discovery with increasing thread counts and shows
// that the output is identical while wall-clock time drops.
//
//   $ ./examples/parallel_discovery [rows]

#include <cstdio>
#include <cstdlib>

#include "core/ocd_discover.h"
#include "datagen/generators.h"
#include "relation/coded_relation.h"

int main(int argc, char** argv) {
  std::size_t rows = argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1]))
                              : 20000;
  ocdd::rel::CodedRelation coded =
      ocdd::rel::CodedRelation::Encode(ocdd::datagen::MakeDbtesma(rows, 42));
  std::printf("DBTESMA analogue: %zu rows x %zu columns\n\n", coded.num_rows(),
              coded.num_columns());

  std::size_t baseline_ocds = 0;
  double baseline_time = 0.0;
  for (std::size_t threads : {1, 2, 4, 8}) {
    ocdd::core::OcdDiscoverOptions opts;
    opts.num_threads = threads;
    ocdd::RunContext budget;
    budget.set_time_limit_seconds(300);
    opts.run_context = &budget;
    auto result = ocdd::core::DiscoverOcds(coded, opts);
    if (threads == 1) {
      baseline_ocds = result.ocds.size();
      baseline_time = result.elapsed_seconds;
    }
    std::printf(
        "threads=%zu: %8.3fs  speedup=%.2fx  ocds=%zu ods=%zu checks=%llu%s\n",
        threads, result.elapsed_seconds,
        result.elapsed_seconds > 0 ? baseline_time / result.elapsed_seconds
                                   : 0.0,
        result.ocds.size(), result.ods.size(),
        static_cast<unsigned long long>(result.num_checks),
        result.ocds.size() == baseline_ocds ? "" : "  MISMATCH!");
  }
  std::printf("\nResults are independent of the thread count; the speedup\n"
              "profile depends on rows-per-check vs checks-per-level "
              "(paper §5.3.3).\n");
  return 0;
}
