#ifndef OCDD_ALGO_FASTOD_CANONICAL_H_
#define OCDD_ALGO_FASTOD_CANONICAL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "algo/fastod/fastod_bid.h"
#include "common/run_context.h"
#include "common/snapshot.h"
#include "core/level_walk.h"
#include "relation/coded_relation.h"

namespace ocdd::algo {

/// The swap polarities a canonical walk checks: none (TANE), ↑↑ (FASTOD),
/// or ↑↑ and ↑↓ (FASTOD-BID).
enum class Polarities { kNone, kConcordant, kBoth };

/// Which canonical walk to run.
struct CanonicalSpec {
  const char* name;             ///< `<name>.level`/`.generate`, snapshot store
  const char* constancy_point;  ///< injection point of a constancy check
  const char* swap_point;       ///< injection point of a swap check
  Polarities polarities;
  std::uint32_t state_version;  ///< snapshot state format it writes and reads
};

struct CanonicalResult : core::WalkCounters {
  /// Minimal constancy and swap-free canonical ODs, sorted.
  std::vector<BidCanonicalOd> ods;
  CheckpointStats checkpoint_stats;
};

/// The set-lattice walk under the canonical rules of the set-based form
/// (arXiv 1608.06169), which TANE, FASTOD and FASTOD-BID all are. Per set
/// X of a level it checks, first for every set of the level:
///  * constancy `X\A: [] ↦ A`, the FD `X\A → A`, for `A ∈ X ∩ C_c(X)`:
///    it holds iff e(π(X\A)) = e(π(X)); TANE's C⁺ pruning keeps the
///    emitted ones minimal;
///  * then, for every set, the swap `X\{A,B}: A ~ B` in each checked
///    polarity, for pairs that were swap-falsified in every immediate
///    sub-context. A pair valid in a smaller context is implied in every
///    larger one, and a pair whose context determines A or B is implied by
///    that constancy OD; neither is emitted nor propagated.
/// A set is kept while it has a constancy candidate or a falsified pair.
/// With checkpointing configured, TANE and FASTOD snapshot each level
/// boundary (docs/checkpointing.md).
CanonicalResult DiscoverCanonical(const rel::CodedRelation& relation,
                                  const CanonicalSpec& spec,
                                  RunContext* run_context,
                                  std::size_t max_level,
                                  const CheckpointConfig& checkpoint = {});

}  // namespace ocdd::algo

#endif  // OCDD_ALGO_FASTOD_CANONICAL_H_
