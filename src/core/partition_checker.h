#ifndef OCDD_CORE_PARTITION_CHECKER_H_
#define OCDD_CORE_PARTITION_CHECKER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/run_context.h"
#include "common/thread_pool.h"
#include "core/checker.h"
#include "core/list_partition.h"
#include "od/attribute_list.h"
#include "relation/coded_relation.h"

namespace ocdd::core {

/// Default byte budget of a walk's sorted-partition cache.
inline constexpr std::size_t kDefaultPartitionCacheBytes = 1ULL << 30;

/// One candidate of a lattice walk: the attribute lists of `x ~ y` (ORDER
/// reads it as `x → y`).
struct Candidate {
  od::AttributeList x;
  od::AttributeList y;

  friend bool operator==(const Candidate& a, const Candidate& b) {
    return a.x == b.x && a.y == b.y;
  }
};

struct CandidateHash {
  std::size_t operator()(const Candidate& c) const {
    od::AttributeListHash h;
    return h(c.x) * 1000003ULL ^ h(c.y);
  }
};

/// Heap-inclusive footprint of one candidate, the unit the walks charge
/// their frontiers to the RunContext memory budget in.
inline std::size_t CandidateBytes(const Candidate& c) {
  return sizeof(Candidate) +
         (c.x.size() + c.y.size()) * sizeof(rel::ColumnId);
}

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
/// It caches sorted partitions (list_partition.h). Before a level's checks,
/// `Prepare` refines each missing list from its one-shorter prefix (§5.3.1's
/// re-implementation of ORDER's scheme), so a check reads two rank vectors
/// in O(m). A side without a cached partition is checked by the sort-based
/// `OrderChecker` (§4.3) instead, with the same results and the same check
/// counts.
///
/// The cache is content-addressed: every OCD `X ~ Y` the walk validates
/// makes `XY` and `YX` the same partition, and a non-splitting refinement
/// repeats its parent, so many lists share one rank vector. Each distinct
/// vector is stored once under a dense `PartId` (identity = a 64-bit
/// content hash confirmed by exact comparison), lists map to ids, and two
/// memos key work by ids instead of lists:
///
///  * refine memo: (parent id, column) → id, so a vector is refined once;
///  * check memo: {x id, y id} → outcome, so `CheckOcdAndOds` runs the
///    check kernel once per distinct pair of vectors in a level (one pass
///    answers both directions). `Prepare` opens a slot per pair of the
///    level, and each slot is filled once by whichever check reaches it
///    first. Slots live for one level: the next `Prepare` releases those
///    its level does not check again, so dead slots never hold cache room
///    that later vectors need. `CheckOd`, ORDER's check, is not memoised.
///
/// A new vector or memo slot is stored only when it fits `max_cache_bytes`
/// and the RunContext memory budget, of which the cache takes at most half
/// so the candidate frontier keeps the rest. The fit is tested before
/// charging, so a full cache falls back to sorting (a vector) or to an
/// unmemoised kernel run (a slot) and never latches `kMemoryBudget`; the
/// destructor returns the charge. Every check counts on `num_checks()` and
/// on the RunContext check budget, memoised or not.
///
/// `Prepare` must not overlap the checks; the `Check*` methods are const
/// and may run concurrently from pool workers between `Prepare` calls.
class PartitionChecker {
 public:
  /// `max_cache_bytes` 0 = no cache cap of its own. `use_partitions` false
  /// makes `Prepare` a no-op, so every check sorts.
  PartitionChecker(const rel::CodedRelation& relation, RunContext& ctx,
                   std::size_t max_cache_bytes, bool use_partitions = true);
  ~PartitionChecker();

  PartitionChecker(const PartitionChecker&) = delete;
  PartitionChecker& operator=(const PartitionChecker&) = delete;

  /// Caches the partitions of both sides of every candidate of `level`
  /// not flagged in `skip`, and of their prefixes, within the budgets.
  /// With `memoize_checks` it also opens a check-memo slot for each pair of
  /// cached sides, for `CheckOcdAndOds`; either way it releases the
  /// previous level's slots that `level` does not check again. `CheckOd`
  /// reads no slot, so a walk that checks only through it passes false.
  /// Refinement runs one list length at a time, on `pool` when given; the
  /// cache content never depends on the thread count. A stopped run skips
  /// the remaining lengths.
  void Prepare(const std::vector<Candidate>& level, ThreadPool* pool,
               const std::vector<char>* skip = nullptr,
               bool memoize_checks = true);

  /// OCD single check `x ~ y` (Theorem 4.1) and, when it holds, both
  /// embedded ODs `x → y` and `y → x`: 1 check, plus 2 at valid nodes.
  CandidateOutcome CheckOcdAndOds(const od::AttributeList& x,
                                  const od::AttributeList& y) const;

  /// Full OD check `lhs → rhs` with exact split/swap classification:
  /// 1 check.
  OdCheckOutcome CheckOd(const od::AttributeList& lhs,
                         const od::AttributeList& rhs) const;

  std::uint64_t num_checks() const {
    return checks_.load(std::memory_order_relaxed);
  }

  /// Bytes the cache holds and has charged: the distinct vectors, which
  /// are kept for the whole walk, and the current level's memo slots.
  std::size_t cache_bytes() const { return cache_bytes_; }

  /// Id of the vector cached for `list`, or `kNoPartId`.
  PartId IdOf(const od::AttributeList& list) const;

  /// Number of distinct vectors stored.
  std::size_t num_partitions() const { return parts_.size(); }

 private:
  /// The check memo of one unordered pair {lo, hi} of ids (lo <= hi):
  /// `both[0]` is the direction lo → hi, `both[1]` is hi → lo, computed in
  /// one pass by the first caller.
  struct CheckSlot {
    std::once_flag once;
    OdCheckOutcome both[2];
  };
  /// Heap footprint of one slot in `slots_`: the node and its bucket.
  static constexpr std::size_t kSlotBytes =
      sizeof(std::pair<const std::uint64_t, CheckSlot>) + 2 * sizeof(void*);

  /// Refines one length's missing lists; false when a refinement threw.
  bool RefineLayer(std::vector<od::AttributeList>& lists, ThreadPool* pool);
  /// Id of `result`'s content: an equal stored vector's, else a new one's
  /// if it fits the budgets, else `kNoPartId`.
  PartId Publish(ListPartition&& result, std::uint64_t hash);
  /// Releases the memo slots `level` does not check again.
  void ReleaseSlots(const std::vector<Candidate>& level,
                    const std::vector<char>* skip);
  /// The memo slot of {x, y}, or null.
  CheckSlot* SlotOf(PartId x, PartId y) const;
  bool Charge(std::size_t bytes);
  void Count(std::uint64_t n) const;

  const rel::CodedRelation& relation_;
  RunContext& ctx_;
  const std::size_t max_cache_bytes_;
  const bool use_partitions_;
  OrderChecker sorter_;
  mutable std::atomic<std::uint64_t> checks_{0};
  std::vector<ListPartition> parts_;
  std::unordered_multimap<std::uint64_t, PartId> by_content_;
  std::unordered_map<od::AttributeList, PartId, od::AttributeListHash> ids_;
  std::unordered_map<std::uint64_t, PartId> refined_;
  // Mutable: the const checks fill the slots, each once.
  mutable std::unordered_map<std::uint64_t, CheckSlot> slots_;
  std::size_t cache_bytes_ = 0;
};

}  // namespace ocdd::core

#endif  // OCDD_CORE_PARTITION_CHECKER_H_
