#include "algo/fd/tane.h"

#include <utility>

#include "algo/fastod/canonical.h"
#include "common/timer.h"

namespace ocdd::algo {

TaneResult DiscoverFds(const rel::CodedRelation& relation,
                       const TaneOptions& options) {
  WallTimer timer;
  // State format 2 is the canonical walk's; format 1 snapshots resume too.
  CanonicalResult run = DiscoverCanonical(
      relation, {"tane", "tane.check", nullptr, Polarities::kNone, 2},
      options.run_context, options.max_level, options.checkpoint);
  TaneResult result;
  static_cast<core::WalkCounters&>(result) = run;
  result.checkpoint_stats = run.checkpoint_stats;
  for (BidCanonicalOd& dep : run.ods) {
    result.fds.push_back({std::move(dep.context), dep.right});
  }
  result.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace ocdd::algo
