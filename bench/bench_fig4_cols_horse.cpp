// Reproduces Figure 4: column scalability of OCDDISCOVER on HORSE — the
// same protocol as Figure 3 on the wider, NULL-heavy horse-colic analogue.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "core/ocd_discover.h"
#include "datagen/registry.h"

int main() {
  std::printf("Figure 4 reproduction: column scalability on HORSE\n\n");
  int samples = ocdd::datagen::FullScaleRequested() ? 50 : 6;
  ocdd::rel::CodedRelation horse = ocdd::bench::LoadCoded("HORSE");
  std::printf("HORSE (%zu rows, %zu cols), avg of %d random column samples\n",
              horse.num_rows(), horse.num_columns(), samples);
  std::printf("%6s %12s %10s %8s\n", "cols", "time_s", "checks", "ocds");
  for (std::size_t c = 2; c <= horse.num_columns(); c += 1) {
    double total = 0.0;
    std::uint64_t checks = 0;
    std::size_t ocds = 0;
    int tle = 0;
    for (int s = 0; s < samples; ++s) {
      ocdd::Rng rng(2000 * c + static_cast<std::size_t>(s));
      std::vector<std::size_t> cols =
          rng.SampleWithoutReplacement(horse.num_columns(), c);
      ocdd::rel::CodedRelation sample = horse.ProjectColumns(cols);
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
  return 0;
}
