#ifndef OCDD_CORE_PARTITION_CHECKER_H_
#define OCDD_CORE_PARTITION_CHECKER_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/run_context.h"
#include "common/thread_pool.h"
#include "core/checker.h"
#include "core/list_partition.h"
#include "core/list_table.h"
#include "od/attribute_list.h"
#include "relation/coded_relation.h"

namespace ocdd::core {

/// Default byte budget of a walk's sorted-partition cache.
inline constexpr std::size_t kDefaultPartitionCacheBytes = 1ULL << 30;

/// Frontier charge of one candidate: the footprint of its two lists as
/// values. The table shares them and is charged on its own; the frontier
/// charge stays per candidate, so a memory budget bounds the frontier by
/// the size of its lists.
inline std::size_t CandidateBytes(const ListTable& lists, const Candidate& c) {
  return 2 * sizeof(od::AttributeList) +
         (lists.length(c.x) + lists.length(c.y)) * sizeof(rel::ColumnId);
}

/// A level of a lattice walk as it is generated: its candidates in
/// first-seen order, each once (an `IdIndex` of positions by id pair
/// catches duplicates), each charged `CandidateBytes` to the RunContext
/// memory budget. The charge is returned when the frontier is destroyed
/// or assigned over.
class Frontier {
 public:
  Frontier(const ListTable& lists, RunContext& ctx)
      : lists_(&lists), ctx_(&ctx) {}
  ~Frontier() { ctx_->ReleaseMemory(bytes_); }
  Frontier(Frontier&& other) noexcept;
  Frontier& operator=(Frontier&& other) noexcept;

  /// Appends `x ~ y` unless the frontier holds it. False when either id is
  /// `kNoListId` (the table refused to intern it) or the candidate's charge
  /// is refused: the RunContext has then latched `kMemoryBudget` and the
  /// walk ends.
  bool Add(ListId x, ListId y);

  /// Makes room for `count` candidates in an empty frontier, so that
  /// adding them grows nothing.
  void Reserve(std::size_t count);

  const std::vector<Candidate>& candidates() const { return candidates_; }
  const Candidate& operator[](std::size_t i) const { return candidates_[i]; }
  std::size_t size() const { return candidates_.size(); }
  bool empty() const { return candidates_.empty(); }

 private:
  const ListTable* lists_;
  RunContext* ctx_;
  std::vector<Candidate> candidates_;
  IdIndex seen_;  // candidate positions by (x, y)
  std::size_t bytes_ = 0;
};

/// The three bits of one OCD candidate's check outcome. The OD bits are
/// meaningful only when `ocd_valid` is set — an invalid OCD candidate
/// spawns nothing and its embedded ODs are never tested (§4.2.1).
struct CandidateOutcome {
  bool ocd_valid = false;
  bool od_xy = false;
  bool od_yx = false;
};

/// The one check path of every lattice walk: OCDDISCOVER, ORDER and
/// polarized discovery validate candidates only through this class.
///
/// Every split and swap quantifies over pairs of tuples, and a duplicate
/// tuple adds only pairs of equal tuples, which witness neither. So the
/// constructor first looks for duplicates: it refines a chain of the
/// columns, widest `num_distinct` first, and gives up as soon as the
/// groups pass m / 2 (most inputs give up before any refine, on their
/// widest column). When the chain ends at or below that,
/// the checker reads a compact copy of the relation with the first row of
/// each distinct tuple, in row order: same columns, names, `num_distinct`
/// and `has_nulls`, so every list has the same groups and every check the
/// same outcome. The copy is charged to the memory budget on the cache's
/// side; when the charge is refused, the checker reads the full relation.
///
/// It caches sorted partitions (list_partition.h). Before a level's checks,
/// `Prepare` refines each missing list from its one-shorter prefix (§5.3.1's
/// re-implementation of ORDER's scheme), so a check reads two rank vectors
/// in O(m). A side without a cached partition is checked by the sort-based
/// `OrderChecker` (§4.3) instead, with the same results and the same check
/// counts.
///
/// Lists are ids: the checker owns the walk's `ListTable`, the walks build
/// candidates from its ids, and the cache records each list's partition id
/// in the table. Planning follows parent ids, publishing writes the table,
/// and a check reads both sides' partition ids by index, so no phase
/// hashes or copies an `AttributeList` per candidate.
///
/// The cache is content-addressed: every OCD `X ~ Y` the walk validates
/// makes `XY` and `YX` the same partition, and a non-splitting refinement
/// repeats its parent, so many lists share one rank vector. Each distinct
/// vector is stored once under a dense `PartId` (identity = a 64-bit
/// content hash confirmed by exact comparison), and two memos key work by
/// partition ids:
///
///  * refine memo: (parent id, column) → id, so a vector is refined once;
///  * check memo: {x id, y id} → outcome, so `CheckOcdAndOds` runs the
///    check kernel once per distinct pair of vectors in a level (one pass
///    answers both directions). `Prepare` opens a slot per pair of the
///    level and hands each candidate its slot, and each slot is filled
///    once by whichever check reaches it first. Slots live for one level:
///    the next `Prepare` releases those its level does not check again, so
///    dead slots never hold cache room that later vectors need. `CheckOd`,
///    ORDER's check, is not memoised.
///
/// A new vector or memo slot is stored only when it fits `max_cache_bytes`
/// and the RunContext memory budget, of which the cache, the compact copy
/// and the list table together take at most half so the candidate frontier
/// keeps the rest. The compact copy is not held to `max_cache_bytes`.
/// The fit is tested before charging, so a full cache falls back to
/// sorting (a vector) or to an unmemoised kernel run (a slot) and never
/// latches `kMemoryBudget`; the destructor returns the charge. The table
/// charges its lists itself (list_table.h) and the cache yields to it.
/// Every check counts on the RunContext, and so on `num_checks()` and the
/// check budget, memoised or not; a candidate's checks count once it has
/// been checked, as one add.
///
/// `Prepare` and the table's writers must not overlap the checks; the
/// `Check*` methods are const and may run concurrently from pool workers
/// between `Prepare` calls.
class PartitionChecker {
 public:
  /// The check memo of one unordered pair {lo, hi} of partition ids
  /// (lo <= hi): `both[0]` is the direction lo → hi, `both[1]` is
  /// hi → lo, computed in one pass by the first caller.
  struct CheckSlot {
    std::once_flag once;
    OdCheckOutcome both[2];
  };

  /// `max_cache_bytes` 0 = no cache cap of its own. `use_partitions` false
  /// makes `Prepare` a no-op, so every check sorts.
  PartitionChecker(const rel::CodedRelation& relation, RunContext& ctx,
                   std::size_t max_cache_bytes, bool use_partitions = true);
  ~PartitionChecker();

  PartitionChecker(const PartitionChecker&) = delete;
  PartitionChecker& operator=(const PartitionChecker&) = delete;

  /// The walk's interned lists; candidates name lists by these ids.
  ListTable& lists() { return lists_; }
  const ListTable& lists() const { return lists_; }

  /// Caches the partitions of both sides of every candidate of `level`,
  /// and of their prefixes, within the budgets.
  /// With `memoize_checks` it also opens a check-memo slot for each pair of
  /// cached sides, for `CheckOcdAndOds`; either way it releases the
  /// previous level's slots that `level` does not check again. Returns
  /// each candidate's slot (null: none), index for index with `level`.
  /// `CheckOd` reads no slot, so a walk that checks only through it passes
  /// false. Refinement runs one list length at a time, on `pool` when
  /// given; the cache content never depends on the thread count. A stopped
  /// run skips the remaining lengths.
  std::vector<CheckSlot*> Prepare(const std::vector<Candidate>& level,
                                  ThreadPool* pool,
                                  bool memoize_checks = true);

  /// OCD single check `x ~ y` (Theorem 4.1) and, when it holds, both
  /// embedded ODs `x → y` and `y → x`: 1 check, plus 2 at valid nodes.
  /// `slot` is the one `Prepare` handed this candidate (null: none).
  CandidateOutcome CheckOcdAndOds(ListId x, ListId y, CheckSlot* slot) const;

  /// Full OD check `lhs → rhs` with exact split/swap classification:
  /// 1 check.
  OdCheckOutcome CheckOd(ListId lhs, ListId rhs) const;

  /// Checks counted on the RunContext since the checker was built, so
  /// rows the ingest rejected on the same context stay out. No other walk
  /// may count on the context meanwhile; none shares one.
  std::uint64_t num_checks() const { return ctx_.checks() - checks_base_; }

  /// Bytes the cache holds and has charged: the distinct vectors, which
  /// are kept for the whole walk, and the current level's memo slots.
  std::size_t cache_bytes() const { return cache_bytes_; }

  /// Number of distinct vectors stored.
  std::size_t num_partitions() const { return parts_.size(); }

  /// Rows the checks read: the distinct tuples when the compact copy was
  /// kept, else every row of the relation.
  std::size_t checked_rows() const { return relation_.num_rows(); }

 private:
  /// Heap footprint of one slot in `slots_`: the node and its bucket.
  static constexpr std::size_t kSlotBytes =
      sizeof(std::pair<const std::uint64_t, CheckSlot>) + 2 * sizeof(void*);

  /// Refines one length's missing lists; false when a refinement threw.
  bool RefineLayer(const std::vector<ListId>& layer, ThreadPool* pool);
  /// Id of `result`'s content: an equal stored vector's, else a new one's
  /// if it fits the budgets, else `kNoPartId`.
  PartId Publish(ListPartition&& result, std::uint64_t hash);
  /// Releases the memo slots `level` does not check again.
  void ReleaseSlots(const std::vector<Candidate>& level);
  /// The compact copy of `relation`, one row per distinct tuple, when it
  /// keeps at most m / 2 rows and its charge fits.
  std::optional<rel::CodedRelation> DistinctTuples(
      const rel::CodedRelation& relation);
  /// Charges a new vector or slot: within `max_cache_bytes` and the share.
  bool Charge(std::size_t bytes);
  /// Charges `bytes` to the RunContext budget within the half that the
  /// cache, the compact copy and the list table share.
  bool ChargeShare(std::size_t bytes);

  RunContext& ctx_;
  const std::uint64_t checks_base_;
  const std::size_t max_cache_bytes_;
  const bool use_partitions_;
  ListTable lists_;
  // The charges come before `distinct_`, whose initializer charges the copy.
  std::size_t cache_bytes_ = 0;
  std::size_t distinct_bytes_ = 0;
  const std::optional<rel::CodedRelation> distinct_;
  const rel::CodedRelation& relation_;  // *distinct_, else the input
  OrderChecker sorter_;
  std::vector<ListPartition> parts_;
  std::unordered_multimap<std::uint64_t, PartId> by_content_;
  std::unordered_map<std::uint64_t, PartId> refined_;
  // Mutable: the const checks fill the slots, each once.
  mutable std::unordered_map<std::uint64_t, CheckSlot> slots_;
};

}  // namespace ocdd::core

#endif  // OCDD_CORE_PARTITION_CHECKER_H_
