// Reproduces Figure 3: column scalability of OCDDISCOVER on HEPATITIS.
// Starting from 2 random columns, random columns are added one at a time;
// execution time is averaged over many independent column samples
// (the paper uses 50; default here is scaled down).

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "core/ocd_discover.h"
#include "datagen/registry.h"

namespace {

void ColumnSweep(const char* name, const ocdd::rel::CodedRelation& full,
                 int samples) {
  std::printf("%s (%zu rows, %zu cols), avg of %d random column samples\n",
              name, full.num_rows(), full.num_columns(), samples);
  std::printf("%6s %12s %10s %8s\n", "cols", "time_s", "checks", "ocds");
  for (std::size_t c = 2; c <= full.num_columns(); ++c) {
    double total = 0.0;
    std::uint64_t checks = 0;
    std::size_t ocds = 0;
    int tle = 0;
    for (int s = 0; s < samples; ++s) {
      ocdd::Rng rng(1000 * c + static_cast<std::size_t>(s));
      std::vector<std::size_t> cols =
          rng.SampleWithoutReplacement(full.num_columns(), c);
      ocdd::rel::CodedRelation sample = full.ProjectColumns(cols);
      ocdd::core::OcdDiscoverOptions opts;
      ocdd::bench::BudgetContext budget(opts);
      auto result = ocdd::core::DiscoverOcds(sample, opts);
      total += result.elapsed_seconds;
      checks += result.num_checks;
      ocds += result.ocds.size();
      if (!result.completed) ++tle;
    }
    std::printf("%6zu %12.4f %10llu %8zu%s\n", c, total / samples,
                static_cast<unsigned long long>(checks / samples),
                ocds / static_cast<std::size_t>(samples),
                tle > 0 ? "  (some TLE)" : "");
    std::fflush(stdout);
  }
}

}  // namespace

int main() {
  std::printf("Figure 3 reproduction: column scalability on HEPATITIS\n\n");
  int samples = ocdd::datagen::FullScaleRequested() ? 50 : 8;
  ocdd::rel::CodedRelation hepatitis = ocdd::bench::LoadCoded("HEPATITIS");
  ColumnSweep("HEPATITIS", hepatitis, samples);
  return 0;
}
