#ifndef OCDD_ALGO_FD_TANE_H_
#define OCDD_ALGO_FD_TANE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/run_context.h"
#include "common/snapshot.h"
#include "od/dependency.h"
#include "relation/coded_relation.h"

namespace ocdd::algo {

struct TaneOptions {
  /// Injectable run control (deadline, budgets, cancellation, fault
  /// injection); nullptr = a private, unbudgeted context.
  RunContext* run_context = nullptr;

  std::size_t max_lhs_size = 0;     ///< cap on |LHS| (0 = unlimited)

  /// Crash-safe checkpointing at lattice-level boundaries; see
  /// docs/checkpointing.md. Partitions are refolded on resume; the
  /// previous level survives as its (set, error) pairs only.
  CheckpointConfig checkpoint;
};

struct TaneResult {
  /// Minimal, non-trivial functional dependencies `X → A`, sorted.
  std::vector<od::FunctionalDependency> fds;
  std::uint64_t num_checks = 0;
  bool completed = true;
  StopReason stop_reason = StopReason::kNone;  ///< kNone when completed
  /// Where the run was when it stopped (meaningful when `!completed`).
  StopState stop_state;
  /// What checkpointing did (zero-initialized when disabled).
  CheckpointStats checkpoint_stats;
  double elapsed_seconds = 0.0;
};

/// TANE [9]: level-wise minimal-FD discovery over the attribute-set lattice
/// with stripped partitions. Stands in for the paper's fastFDs reference
/// (`|Fd|` column of Table 6) — both produce the complete set of minimal
/// FDs, which is all the evaluation uses.
///
/// Candidate-RHS sets C⁺(X) enforce minimality exactly as in the original
/// algorithm; nodes whose C⁺ empties are removed from the lattice. (The
/// original's superkey early-exit is omitted: keys are instead exhausted by
/// the regular candidate mechanism — same output, slightly more checks.)
TaneResult DiscoverFds(const rel::CodedRelation& relation,
                       const TaneOptions& options = {});

}  // namespace ocdd::algo

#endif  // OCDD_ALGO_FD_TANE_H_
