#ifndef OCDD_CORE_OCD_DISCOVER_H_
#define OCDD_CORE_OCD_DISCOVER_H_

#include <cstddef>
#include <vector>

#include "common/run_context.h"
#include "common/snapshot.h"
#include "core/column_reduction.h"
#include "core/level_walk.h"
#include "core/partition_checker.h"
#include "od/dependency.h"
#include "relation/coded_relation.h"

namespace ocdd::core {

/// Tuning knobs for a discovery run.
struct OcdDiscoverOptions {
  /// Injectable run control: deadline, check/memory budgets, cooperative
  /// cancellation, fault injection (see common/run_context.h). A stopped
  /// run — the paper's 5-hour cut-off — returns the results found so far
  /// with `completed == false`. Not owned; nullptr = a private, unbudgeted
  /// context.
  RunContext* run_context = nullptr;

  /// Worker threads for candidate checking (paper §4.2.2); 1 = sequential.
  std::size_t num_threads = 1;

  /// Cap on the tree level ℓ = |X| + |Y| (0 = unlimited). Level
  /// `max_level` is checked and emitted in full but spawns no children;
  /// the run stops with `kLevelCap` when one of its candidates would. The
  /// walk's candidate cap (`kMaxCandidatesPerLevel`) stops it the same way.
  std::size_t max_level = 0;

  /// Disable to skip the columnsReduction() phase (ablation).
  bool apply_column_reduction = true;

  /// Check with cached *sorted partitions* (partition_checker.h), ORDER's
  /// O(m) scheme that §5.3.1 notes could be re-implemented here; lists
  /// that do not fit the budgets sort per check (§4.3). False sorts every
  /// check — the paper's scheme, for the ablation. Results and check
  /// counts are identical either way.
  bool use_sorted_partitions = true;

  /// Byte budget of the sorted-partition cache (0 = unlimited).
  std::size_t max_partition_cache_bytes = kDefaultPartitionCacheBytes;

  /// Disable to skip the Theorem-3.9 pruning rules: every valid OCD then
  /// extends both sides regardless of the embedded ODs (ablation). The
  /// search then also visits — and reports — OCDs that the pruned run
  /// leaves implicit (they are derivable from emitted ODs), at the cost of
  /// strictly more candidates and checks.
  bool apply_od_pruning = true;

  /// Crash-safe checkpointing (see docs/checkpointing.md). Snapshots are
  /// taken at level boundaries — the BFS frontier plus the emitted OCD/OD
  /// sets — per the RunContext cadence, plus once on any early stop (drain)
  /// and once at completion. With `resume` set, the newest valid generation
  /// whose relation fingerprint matches is restored and the run redoes at
  /// most the one level that was in flight.
  CheckpointConfig checkpoint;
};

/// Output of `DiscoverOcds`; the walk's counters (level_walk.h) count OCD
/// single checks plus OD checks.
struct OcdDiscoverResult : WalkCounters {
  /// Minimal OCDs (disjoint duplicate-free sides) over the reduced
  /// universe U′, canonicalized and sorted.
  std::vector<od::OrderCompatibility> ocds;

  /// ODs emitted at valid OCD nodes (`X → Y` and/or `Y → X` where both the
  /// OCD and the OD hold), sorted.
  std::vector<od::OrderDependency> ods;

  /// The columnsReduction() output: constants and equivalence classes are
  /// an integral part of the result (paper §4.1).
  ColumnReduction reduction;

  /// What checkpointing did (zero-initialized when disabled).
  CheckpointStats checkpoint_stats;

  /// Peak footprint of the sorted-partition cache (0 when every check
  /// sorted).
  std::size_t partition_cache_bytes = 0;

  double elapsed_seconds = 0.0;
};

/// Runs OCDDISCOVER (Algorithm 1) over `relation`.
///
/// The search enumerates OCD candidates `X ~ Y` with disjoint,
/// duplicate-free sides breadth-first: level 2 holds all single-attribute
/// pairs; a valid candidate spawns `XA ~ Y` and `X ~ YA` for every unused
/// attribute A, except that a side whose full OD already holds is not
/// extended (its extensions are implied — Theorem 3.9). Invalid candidates
/// spawn nothing (Theorem 3.7). Each candidate is validated with the
/// single-check reduction of Theorem 4.1.
OcdDiscoverResult DiscoverOcds(const rel::CodedRelation& relation,
                               const OcdDiscoverOptions& options = {});

}  // namespace ocdd::core

#endif  // OCDD_CORE_OCD_DISCOVER_H_
