#ifndef OCDD_ALGO_INCREMENTAL_INCREMENTAL_H_
#define OCDD_ALGO_INCREMENTAL_INCREMENTAL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/run_context.h"
#include "common/snapshot.h"
#include "core/ocd_discover.h"
#include "od/attribute_list.h"
#include "relation/batch.h"
#include "relation/coded_relation.h"
#include "relation/relation.h"

namespace ocdd::algo {

/// Incremental / streaming OD maintenance (docs/incremental.md).
///
/// An `IncrementalSession` owns a materialized relation plus warm discovery
/// state — the outcome of every candidate the last walk visited, violation
/// witnesses for the invalid ones, and per-list sorted row permutations —
/// and applies append/delete `RowBatch`es to it. Each batch triggers one
/// OCDDISCOVER walk over the merged relation in which a `CandidateCheckHook`
/// serves every candidate whose outcome the warm state can *prove* is
/// unchanged, so only candidates the batch can perturb pay a data pass:
///
///  - A cached-invalid candidate (or false OD bit) stays invalid under
///    appends for free, and under deletes when its recorded violation
///    witness (a swap pair, or a split pair) survives the batch.
///  - A cached-valid candidate stays valid under deletes for free; under
///    appends an O(batch) counting argument over the list's sorted old-row
///    permutation decides whether any new row introduces a swap (or breaks
///    an embedded OD) against the old rows, plus an O(batch log batch)
///    sweep for new-row/new-row pairs.
///
/// The result of the walk is therefore *identical* to a from-scratch run on
/// the materialized relation — the hook only short-circuits checks whose
/// outcome is provably what the data pass would compute. That is the
/// equivalence contract the `ocdd qa` incremental stage enforces.
struct IncrementalOptions {
  /// Worker threads for the cache-miss check phase of each walk.
  std::size_t num_threads = 1;

  /// Cap on the candidate tree level (0 = unlimited); must match the
  /// from-scratch oracle's cap for equivalence comparisons.
  std::size_t max_level = 0;

  /// Byte budget for the warm per-list sorted-permutation cache that powers
  /// the append counting fast path. A list that does not fit simply misses
  /// the hook and is recomputed against the data — never an error.
  std::size_t max_perm_cache_bytes = 512ULL << 20;

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
  /// The walk over the merged relation. `hook_served` / `hook_recomputed`
  /// say how much of it the warm state paid for; `completed == false` means
  /// a budget stopped the walk (the warm state is then a sound partial
  /// cache and the claims are a prefix).
  core::OcdDiscoverResult result;
  double seconds = 0.0;
  bool snapshot_written = false;
  std::string warning;
};

/// Sentinel row id: "no witness recorded" (entry must be recomputed when a
/// delete could have flipped the bit it guards).
inline constexpr std::uint32_t kNoWitnessRow = 0xffffffffu;

/// A pair of rows witnessing a violation, in current-relation row ids.
struct WitnessPair {
  std::uint32_t a = kNoWitnessRow;
  std::uint32_t b = kNoWitnessRow;
  bool known() const { return a != kNoWitnessRow && b != kNoWitnessRow; }
};

/// One candidate's warm outcome. The OD bits are meaningful only when
/// `ocd_valid` (§4.2.1). Witness semantics: `swap_w` holds a swap pair when
/// `!ocd_valid`; `split_xy`/`split_yx` hold an equal-X/different-Y split
/// pair when the corresponding OD bit is false at a valid OCD node.
struct CandidateWarmth {
  bool ocd_valid = false;
  bool od_xy = false;
  bool od_yx = false;
  WitnessPair swap_w;
  WitnessPair split_xy;
  WitnessPair split_yx;
};

class IncrementalSession {
 public:
  /// Empty session; use `Start` or `Open`.
  IncrementalSession() = default;
  IncrementalSession(IncrementalSession&&) = default;
  IncrementalSession& operator=(IncrementalSession&&) = default;

  /// Builds a session from scratch over `base`: one full discovery walk
  /// (every candidate recomputed), witness extraction, and — when
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

  /// Applies one batch: materializes the merged relation, runs the
  /// hook-accelerated walk, commits the new warm state, and writes a
  /// snapshot generation. All-or-nothing on validation errors (bad delete
  /// indices, mistyped appends): the session is unchanged. `ctx` carries
  /// the walk's budgets; a budget stop commits sound partial state.
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
  /// Bytes currently held by the per-list permutation cache.
  std::size_t perm_cache_bytes() const { return perm_bytes_; }

  /// A candidate key: the two sides of `X ~ Y`.
  struct CandKey {
    od::AttributeList x;
    od::AttributeList y;
    friend bool operator==(const CandKey& a, const CandKey& b) {
      return a.x == b.x && a.y == b.y;
    }
  };
  struct CandKeyHash {
    std::size_t operator()(const CandKey& c) const {
      od::AttributeListHash h;
      return h(c.x) * 1000003ULL ^ h(c.y);
    }
  };
  using OutcomeMap = std::unordered_map<CandKey, CandidateWarmth, CandKeyHash>;

  /// Warm outcomes of every candidate the last walk visited (test hook).
  const OutcomeMap& outcomes() const { return outcomes_; }

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
  OutcomeMap outcomes_;

  /// One cached sorted permutation. `rows` is a full permutation of the
  /// relation-prefix [0, rows.size()) — order-preserving delete remaps and
  /// end-appended rows both keep a prefix a prefix — in the row ids of
  /// delete-epoch `epoch`. Entries are brought current *lazily on access*
  /// (replay remaps from the log, then fold missing tail rows in); eagerly
  /// maintaining every cached perm on every batch costs more than the walk
  /// it accelerates.
  struct PermEntry {
    std::vector<std::uint32_t> rows;
    std::uint64_t epoch = 0;
  };
  std::unordered_map<od::AttributeList, PermEntry, od::AttributeListHash>
      perms_;
  std::size_t perm_bytes_ = 0;

  /// Delete epoch: bumped once per batch that deletes rows. `remap_log_[e]`
  /// maps epoch-e row ids to epoch-(e+1) ids (`kNoWitnessRow` = deleted);
  /// entries are dropped once no cached perm is that far behind.
  std::uint64_t delete_epoch_ = 0;
  std::map<std::uint64_t, std::vector<std::uint32_t>> remap_log_;
  /// Memo of remap compositions `epoch e → delete_epoch_`, so a batch that
  /// touches thousands of equally-stale perms replays each in ONE pass
  /// instead of one pass per missed epoch. Invalidated on every epoch bump.
  std::map<std::uint64_t, std::vector<std::uint32_t>> composed_remaps_;
};

/// The oracle the incremental result must match: a from-scratch walk over
/// `relation` with the same knobs a session walk uses. Claims (ods/ocds)
/// must compare equal element-wise after both runs complete.
core::OcdDiscoverResult DiscoverFromScratch(const rel::Relation& relation,
                                            const IncrementalOptions& options,
                                            RunContext* ctx = nullptr);

}  // namespace ocdd::algo

#endif  // OCDD_ALGO_INCREMENTAL_INCREMENTAL_H_
