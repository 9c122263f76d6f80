#ifndef OCDD_ALGO_UCC_UCC_H_
#define OCDD_ALGO_UCC_UCC_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/run_context.h"
#include "core/level_walk.h"
#include "relation/coded_relation.h"

namespace ocdd::algo {

/// Unique column combinations — the profiling primitive §5.4 pairs with
/// order dependencies: "detection of unique column combinations is usually
/// performed to find primary key candidates that may be also interesting
/// candidates from the point of view of ordering and query optimization."
///
/// A column set X is *unique* when no two rows agree on all of X; a
/// *minimal* UCC has no unique proper subset. Minimal UCCs are the primary
/// key candidates.
struct Ucc {
  std::vector<rel::ColumnId> columns;  ///< sorted, duplicate-free

  std::string ToString(const rel::CodedRelation& relation) const;

  friend bool operator==(const Ucc& a, const Ucc& b) {
    return a.columns == b.columns;
  }
  friend bool operator<(const Ucc& a, const Ucc& b) {
    return a.columns < b.columns;
  }
};

struct UccOptions {
  /// Injectable run control (deadline, budgets, cancellation, fault
  /// injection); nullptr = a private, unbudgeted context.
  RunContext* run_context = nullptr;

  std::size_t max_level = 0;  ///< the largest |X| checked (0 = unlimited)
};

struct UccResult : core::WalkCounters {
  std::vector<Ucc> uccs;  ///< minimal UCCs, sorted
  double elapsed_seconds = 0.0;
};

/// Level-wise minimal-UCC discovery on the set-lattice walk
/// (`SetLevelWalk`): a set is unique iff its stripped partition is empty;
/// unique nodes are emitted and pruned (their supersets are unique but not
/// minimal), non-unique nodes grow via the prefix-block join with the
/// all-subsets-present condition — which guarantees minimality of
/// everything emitted.
UccResult DiscoverUccs(const rel::CodedRelation& relation,
                       const UccOptions& options = {});

/// §5.4's suggested synthesis: the minimal UCCs ranked as primary-key
/// candidates — compact keys first (fewest columns), diversity (total
/// column entropy, descending) as the tie-break.
std::vector<Ucc> RankKeyCandidates(const rel::CodedRelation& relation,
                                   const UccResult& result);

}  // namespace ocdd::algo

#endif  // OCDD_ALGO_UCC_UCC_H_
