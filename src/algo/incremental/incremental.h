#ifndef OCDD_ALGO_INCREMENTAL_INCREMENTAL_H_
#define OCDD_ALGO_INCREMENTAL_INCREMENTAL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/run_context.h"
#include "common/snapshot.h"
#include "core/ocd_discover.h"
#include "relation/batch.h"
#include "relation/coded_relation.h"
#include "relation/relation.h"

namespace ocdd::algo {

/// Incremental / streaming OD maintenance (docs/incremental.md).
///
/// An `IncrementalSession` owns a materialized relation and the result of
/// the last discovery walk over it, applies append/delete `RowBatch`es to
/// the relation, and persists both as warm-state generations. Each batch
/// reruns the same OCDDISCOVER walk `DiscoverFromScratch` runs over the
/// merged relation, so the session's claims equal a from-scratch run by
/// construction. (A per-candidate outcome cache once served unchanged
/// candidates; keeping it current cost more than the walk it saved —
/// docs/incremental.md has the numbers.)
struct IncrementalOptions {
  /// Worker threads for each walk's check phase.
  std::size_t num_threads = 1;

  /// Cap on the candidate tree level (0 = unlimited); must match the
  /// from-scratch oracle's cap for equivalence comparisons.
  std::size_t max_level = 0;

  /// Warm-state persistence root (empty = in-memory session only). One
  /// snapshot generation is written per batch boundary.
  std::string state_dir;
  std::size_t keep_generations = 2;
};

/// What one `ApplyBatch` did.
struct BatchApplyStats {
  /// Monotone batch counter; batch k produced warm-state generation k.
  std::uint64_t batch_seq = 0;
  std::size_t deletes = 0;
  std::size_t appends = 0;
  /// Rows in the materialized relation after the batch.
  std::size_t num_rows = 0;
  /// The walk over the merged relation; `completed == false` means a
  /// budget stopped it and the claims are a sound prefix.
  core::OcdDiscoverResult result;
  double seconds = 0.0;
  bool snapshot_written = false;
  std::string warning;
};

class IncrementalSession {
 public:
  /// Empty session; use `Start` or `Open`.
  IncrementalSession() = default;
  IncrementalSession(IncrementalSession&&) = default;
  IncrementalSession& operator=(IncrementalSession&&) = default;

  /// Builds a session over `base`: one discovery walk and — when
  /// `options.state_dir` is set — the first warm-state snapshot.
  /// `ctx` carries budgets/cancellation for the walk (may be nullptr).
  static Result<IncrementalSession> Start(rel::Relation base,
                                          const IncrementalOptions& options,
                                          RunContext* ctx = nullptr);

  /// Restores a session from `options.state_dir`. Torn or corrupt newest
  /// generations fall back to the previous generation (the caller sees the
  /// `batch_seq` regression and replays); when *no* generation is usable
  /// and `base_loader` is provided, the session degrades to a from-scratch
  /// `Start` over the loaded base relation with `open_warning()` set —
  /// degradation is never an error unless the base also fails to load.
  static Result<IncrementalSession> Open(
      const IncrementalOptions& options,
      const std::function<Result<rel::Relation>()>& base_loader,
      RunContext* ctx = nullptr);

  /// Applies one batch: materializes the merged relation, rediscovers over
  /// it, and writes a snapshot generation. All-or-nothing on validation
  /// errors (bad delete indices, mistyped appends): the session is
  /// unchanged. `ctx` carries the walk's budgets; a budget stop commits
  /// the merged relation and the partial result.
  Result<BatchApplyStats> ApplyBatch(const rel::RowBatch& batch,
                                     RunContext* ctx = nullptr);

  const rel::Relation& relation() const { return relation_; }
  const rel::CodedRelation& coded() const { return coded_; }
  const core::OcdDiscoverResult& last_result() const { return last_; }
  std::uint64_t batch_seq() const { return batch_seq_; }
  /// Set when `Open` degraded (corrupt state → from-scratch bootstrap).
  const std::string& open_warning() const { return open_warning_; }
  /// True when `Open` restored warm state (false after degradation).
  bool resumed() const { return resumed_; }

 private:
  friend struct SessionOps;

  IncrementalOptions options_;
  rel::Relation relation_;
  rel::CodedRelation coded_;
  core::OcdDiscoverResult last_;
  std::uint64_t batch_seq_ = 0;
  std::unique_ptr<SnapshotStore> store_;
  std::string open_warning_;
  bool resumed_ = false;
};

/// The oracle the incremental result must match: a from-scratch walk over
/// `relation` with the same knobs a session walk uses. Claims (ods/ocds)
/// must compare equal element-wise after both runs complete.
core::OcdDiscoverResult DiscoverFromScratch(const rel::Relation& relation,
                                            const IncrementalOptions& options,
                                            RunContext* ctx = nullptr);

}  // namespace ocdd::algo

#endif  // OCDD_ALGO_INCREMENTAL_INCREMENTAL_H_
