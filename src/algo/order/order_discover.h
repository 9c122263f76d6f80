#ifndef OCDD_ALGO_ORDER_ORDER_DISCOVER_H_
#define OCDD_ALGO_ORDER_ORDER_DISCOVER_H_

#include <cstddef>
#include <vector>

#include "common/run_context.h"
#include "core/level_walk.h"
#include "core/partition_checker.h"
#include "od/dependency.h"
#include "relation/coded_relation.h"

namespace ocdd::algo {

/// Options for an ORDER run (mirroring OcdDiscoverOptions).
struct OrderDiscoverOptions {
  /// Injectable run control (deadline, budgets, cancellation, fault
  /// injection); nullptr = a private, unbudgeted context.
  RunContext* run_context = nullptr;

  std::size_t max_level = 0;           ///< cap on |X|+|Y| (0 = unlimited)

  /// Worker threads for candidate checking and expansion; 1 = sequential.
  /// Results and counts never depend on it.
  std::size_t num_threads = 1;

  /// Byte budget of the sorted-partition cache candidates are checked
  /// with (core/partition_checker.h); lists that do not fit are checked by
  /// sorting. 0 = unlimited.
  std::size_t max_partition_cache_bytes = core::kDefaultPartitionCacheBytes;
};

/// Output of an ORDER run; the walk's counters (core/level_walk.h) count
/// OD checks.
struct OrderDiscoverResult : core::WalkCounters {
  /// Minimal ODs with disjoint, duplicate-free sides, sorted. By
  /// construction this algorithm cannot discover repeated-attribute
  /// dependencies such as `AB → B` — the incompleteness the paper
  /// demonstrates with the YES dataset (§5.2.1).
  std::vector<od::OrderDependency> ods;

  double elapsed_seconds = 0.0;
};

/// Reimplementation of the ORDER baseline (Langer & Naumann [10]): a
/// level-wise, bottom-up traversal of the lattice of (LHS, RHS) list pairs
/// with split/swap-based pruning:
///
///  * a *valid* candidate `X → Y` is emitted; only its RHS is extended
///    (LHS extensions `XA → Y` are derivable, hence non-minimal);
///  * a candidate falsified only by *splits* extends its LHS (appending to
///    the RHS can never repair a split);
///  * a candidate falsified by a *swap* is pruned entirely (a strict
///    prefix inversion survives any extension of either side).
///
/// Candidates keep both sides disjoint and duplicate-free, matching ORDER's
/// "completely non-trivial" candidate space.
OrderDiscoverResult DiscoverOrderDependencies(
    const rel::CodedRelation& relation, const OrderDiscoverOptions& options = {});

}  // namespace ocdd::algo

#endif  // OCDD_ALGO_ORDER_ORDER_DISCOVER_H_
