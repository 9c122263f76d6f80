#include "algo/fastod/fastod.h"

#include <utility>

#include "algo/fastod/canonical.h"
#include "common/timer.h"

namespace ocdd::algo {

FastodResult DiscoverFastod(const rel::CodedRelation& relation,
                            const FastodOptions& options) {
  WallTimer timer;
  CanonicalResult run = DiscoverCanonical(
      relation,
      {"fastod", "fastod.fd_check", "fastod.swap_check",
       Polarities::kConcordant, 1},
      options.run_context, options.max_level, options.checkpoint);
  FastodResult result;
  static_cast<core::WalkCounters&>(result) = run;
  result.checkpoint_stats = run.checkpoint_stats;
  for (BidCanonicalOd& dep : run.ods) {
    const bool constancy = dep.kind == BidCanonicalOd::Kind::kConstancy;
    ++(constancy ? result.num_constancy : result.num_compatible);
    result.ods.push_back({constancy ? od::CanonicalOd::Kind::kConstancy
                                    : od::CanonicalOd::Kind::kOrderCompatible,
                          std::move(dep.context), dep.left, dep.right});
  }
  result.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace ocdd::algo
