#ifndef OCDD_PERFBENCH_STATS_H_
#define OCDD_PERFBENCH_STATS_H_

// Order statistics for the benchmark's reports. Every timing the benchmark
// prints is a median or a percentile, never a mean: a handful of ops caught
// in a slow stretch of the host moves a mean but not a median.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Median of `v`; the mean of the two middle values for an even count.
/// Empty input gives 0.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// First, second and third quartile, computed exactly as Python's
/// `statistics.quantiles(v, n=4)` (its default, exclusive method) so the
/// benchmark's own spreads match the ones its callers compute. Needs at
/// least two values.
inline std::optional<std::array<double, 3>> Quartiles(std::vector<double> v) {
  if (v.size() < 2) return std::nullopt;
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  const long m = ld + 1;
  std::array<double, 3> out{};
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    out[static_cast<std::size_t>(i - 1)] =
        (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
         v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        4.0;
  }
  return out;
}

/// Samples that must lie strictly above a reported percentile: a p-th
/// percentile resting on fewer is one outlier away from another value.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile (`p` in (0, 1)): the smallest sample with at
/// least p·n samples at or below it. Empty when fewer than
/// `kMinSamplesBeyond` samples lie beyond that rank.
inline std::optional<double> Percentile(std::vector<double> v, double p) {
  const std::size_t n = v.size();
  if (n == 0 || p <= 0.0 || p >= 1.0) return std::nullopt;
  std::size_t rank =
      static_cast<std::size_t>(std::ceil(p * static_cast<double>(n) - 1e-9));
  if (rank < 1) rank = 1;
  if (n - rank < kMinSamplesBeyond) return std::nullopt;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank - 1),
                   v.end());
  return v[rank - 1];
}

/// Smallest sample count for which `Percentile(v, p)` is defined.
inline std::size_t MinSamplesFor(double p) {
  std::size_t n = kMinSamplesBeyond + 1;
  while (!Percentile(std::vector<double>(n, 0.0), p)) ++n;
  return n;
}

}  // namespace perfbench

#endif  // OCDD_PERFBENCH_STATS_H_
