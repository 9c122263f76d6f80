#ifndef OCDD_ALGO_FD_TANE_H_
#define OCDD_ALGO_FD_TANE_H_

#include <cstddef>
#include <vector>

#include "common/run_context.h"
#include "common/snapshot.h"
#include "core/level_walk.h"
#include "od/dependency.h"
#include "relation/coded_relation.h"

namespace ocdd::algo {

struct TaneOptions {
  /// Injectable run control (deadline, budgets, cancellation, fault
  /// injection); nullptr = a private, unbudgeted context.
  RunContext* run_context = nullptr;

  /// The largest |X| checked, so LHSs have at most `max_level - 1`
  /// attributes (0 = unlimited).
  std::size_t max_level = 0;

  /// Crash-safe checkpointing at lattice-level boundaries; see
  /// docs/checkpointing.md. Partitions are refolded on resume.
  CheckpointConfig checkpoint;
};

struct TaneResult : core::WalkCounters {
  /// Minimal, non-trivial functional dependencies `X → A`, sorted.
  std::vector<od::FunctionalDependency> fds;
  /// What checkpointing did (zero-initialized when disabled).
  CheckpointStats checkpoint_stats;
  double elapsed_seconds = 0.0;
};

/// TANE [9]: level-wise minimal-FD discovery over the attribute-set lattice
/// with stripped partitions. Stands in for the paper's fastFDs reference
/// (`|Fd|` column of Table 6) — both produce the complete set of minimal
/// FDs, which is all the evaluation uses.
///
/// It is the canonical walk (`DiscoverCanonical`) with no swap polarity:
/// the constancy OD `X\A: [] ↦ A` is the FD `X\A → A`. Candidate-RHS sets
/// C⁺(X) enforce minimality exactly as in the original algorithm; nodes
/// whose C⁺ empties are removed from the lattice. (The original's superkey
/// early-exit is omitted: keys are instead exhausted by the regular
/// candidate mechanism — same output, slightly more checks.)
TaneResult DiscoverFds(const rel::CodedRelation& relation,
                       const TaneOptions& options = {});

}  // namespace ocdd::algo

#endif  // OCDD_ALGO_FD_TANE_H_
