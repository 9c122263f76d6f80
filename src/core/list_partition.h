#ifndef OCDD_CORE_LIST_PARTITION_H_
#define OCDD_CORE_LIST_PARTITION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/checker.h"
#include "od/attribute_list.h"
#include "relation/coded_relation.h"

namespace ocdd::core {

/// How `ListPartition::Refine` orders the rows inside each parent group.
enum class RefinePath {
  /// Pick per call: counting sort when the new column's domain is small
  /// relative to the row count, comparison sort otherwise.
  kAuto,
  /// Two stable counting-sort passes over (code, parent rank): O(m + d + g)
  /// with no comparisons. Wins when groups are large (small domains).
  kCounting,
  /// Direct bucket renumbering over the key `parent rank · d + code`:
  /// marks occupied buckets, densely renumbers them in key order, then
  /// assigns each row its bucket's rank — two passes over the rows and one
  /// over the g·d buckets, never materializing a row order. The fastest
  /// path whenever g·d is within a small multiple of m.
  kHistogram,
  /// Bucket by parent rank, then std::sort each group by the new column's
  /// codes: O(m + Σ gᵢ log gᵢ). Wins when groups are already tiny.
  kComparison,
};

/// Dense id of one stored rank vector in a `PartitionChecker` cache
/// (partition_checker.h); `kNoPartId` names none.
using PartId = std::uint32_t;
inline constexpr PartId kNoPartId = 0xFFFFFFFFu;

/// Reusable buffers for `Refine`, so a pipeline of refinements performs no
/// per-call allocations (beyond the result's own rank vector). One scratch
/// per thread; a scratch must not be shared between concurrent refinements.
///
/// Consecutive refinements of the *same* parent partition additionally
/// reuse the parent's rank histogram (`rank_offsets`) when the caller names
/// the parent by its `PartId`: the partition cache refines each parent's
/// children back to back on one thread to exploit exactly this.
struct RefineScratch {
  /// Id of the partition `rank_offsets` was computed for; `kNoPartId` =
  /// none. Ids are only unique within one cache, so a caller that reuses a
  /// scratch across caches resets this first.
  PartId histogram_of = kNoPartId;
  std::vector<std::uint32_t> rank_offsets;
  std::vector<std::uint32_t> code_offsets;
  std::vector<std::uint32_t> cursor;
  std::vector<std::uint32_t> rows;
  std::vector<std::uint32_t> tmp;
  /// Per-position refined ranks of the counting/comparison paths, staged
  /// here until the group count (and so the output width) is known.
  std::vector<std::uint32_t> ranks;
};

/// A *sorted partition* of the rows under an attribute list X: the dense,
/// order-preserving rank of every row under the lexicographic order `⪯_X`.
///
/// This is the data structure the ORDER paper [10] uses for its validity
/// checks, which §5.3.1 of the reproduced paper notes "could have been
/// re-implemented in our approach" to avoid re-sorting per candidate. That
/// re-implementation is this class:
///
///  * `ForColumn` is free — a CodedColumn's codes already are the sorted
///    partition of the singleton list;
///  * `Refine` extends a list by one attribute in O(m)–O(m log g) where g
///    is the largest group, instead of the O(m log m) full sort per check;
///  * `CheckOd` / `CheckOcd` validate a candidate from the two sides'
///    partitions in O(m) — no sorting at all.
///
/// The lattice walks extend sides by appending one attribute, so each
/// level's partitions derive from the previous level's — see
/// `PartitionChecker` (partition_checker.h), the cache every walk checks
/// through.
///
/// Storage is width-adaptive: the rank vector lives in the narrowest of
/// `uint8`/`uint16`/`int32` that holds `[0, num_groups)`, chosen from the
/// actual group count (a deterministic function of the partition content,
/// so cache accounting stays bit-identical across thread counts and
/// backends). On low-cardinality data this shrinks the partition cache and
/// the check kernels' memory traffic by 4x; the check and refine kernels
/// are templated over the width and always stream the stored form directly.
class ListPartition {
 public:
  ListPartition() = default;

  /// Rank vector of a single-attribute list (copies the column's narrowest
  /// code mirror).
  static ListPartition ForColumn(const rel::CodedRelation& relation,
                                 rel::ColumnId column);

  /// Rank vector of an arbitrary non-empty list, built by refining the
  /// head column by each subsequent attribute.
  static ListPartition ForList(const rel::CodedRelation& relation,
                               const od::AttributeList& list);

  /// Ranks of the list `this->list ++ [column]`: groups of equal rank are
  /// subdivided by the column's codes, renumbering ranks in order.
  ListPartition Refine(const rel::CodedRelation& relation,
                       rel::ColumnId column) const;

  /// `Refine` with caller-owned scratch (no internal allocations) and an
  /// explicit path choice. All paths produce identical partitions; `kAuto`
  /// picks by the column's domain size. `self` is this partition's id in
  /// the caller's cache (`kNoPartId`: no histogram reuse).
  ListPartition Refine(const rel::CodedRelation& relation,
                       rel::ColumnId column, RefineScratch* scratch,
                       RefinePath path = RefinePath::kAuto,
                       PartId self = kNoPartId) const;

  std::size_t num_rows() const { return num_rows_; }
  std::int32_t num_groups() const { return num_groups_; }

  /// Width of the stored rank vector (the narrowest fitting num_groups).
  rel::CodeWidth width() const { return rel::WidthForDistinct(num_groups_); }

  /// Read-only width-dispatch view of the stored ranks.
  rel::CodeView view() const;

  /// Typed storage accessors; valid only for the matching `width()`.
  const std::uint8_t* data8() const { return c8_.data(); }
  const std::uint16_t* data16() const { return c16_.data(); }
  const std::int32_t* data32() const { return c32_.data(); }

  /// Materializes the ranks as int32 (a copy — the storage is
  /// width-adaptive). Convenience for tests and cold paths; kernels use
  /// `view()` or the typed accessors.
  std::vector<std::int32_t> codes() const;

  /// Approximate heap footprint, for cache budgeting. Uses capacity, so
  /// call `ShrinkToFit` first when the partition is about to be cached —
  /// otherwise the budget is charged for slack the allocator is holding.
  std::size_t MemoryBytes() const {
    return c8_.capacity() * sizeof(std::uint8_t) +
           c16_.capacity() * sizeof(std::uint16_t) +
           c32_.capacity() * sizeof(std::int32_t) + sizeof(*this);
  }

  /// 64-bit hash of the content (group count and ranks). Equal partitions
  /// hash equal; `SameContent` confirms a match exactly.
  std::uint64_t ContentHash() const;

  /// True iff both partitions hold the same rank vector.
  bool SameContent(const ListPartition& other) const;

  /// Releases rank-vector slack (capacity beyond size) so `MemoryBytes`
  /// reflects real heap use before the partition enters a budgeted cache.
  void ShrinkToFit() {
    c8_.shrink_to_fit();
    c16_.shrink_to_fit();
    c32_.shrink_to_fit();
  }

  /// Full OD check `X → Y` from the two sides' partitions (split and swap
  /// classification identical to the sort-based check of checker.h), in
  /// O(m + groups).
  /// `has_swap` alone decides the OCD single check (Theorem 4.1), so one
  /// call answers both "X ~ Y?" and "X → Y?".
  static OdCheckOutcome CheckOd(const ListPartition& lhs,
                                const ListPartition& rhs);

  /// Both directions in one pass over the rows: `*forward` gets the
  /// `lhs → rhs` outcome, `*reverse` the `rhs → lhs` outcome. A single
  /// traversal fills both sides' extremes arrays, halving the dominant
  /// sequential read traffic versus two `CheckOd` calls — the discovery
  /// driver needs both directions for every order-compatible candidate.
  static void CheckOdBoth(const ListPartition& lhs, const ListPartition& rhs,
                          OdCheckOutcome* forward, OdCheckOutcome* reverse);

  /// OCD single check (Theorem 4.1): true iff no swap between the two
  /// sides, i.e. no row pair with `lhs` strictly increasing and `rhs`
  /// strictly decreasing. O(m + groups).
  static bool CheckOcd(const ListPartition& lhs, const ListPartition& rhs);

 private:
  /// Sizes the storage vector matching `WidthForDistinct(groups)` and sets
  /// the shape fields; exactly one vector is non-empty afterwards (m > 0).
  void Allocate(std::size_t m, std::int32_t groups);

  template <typename P, typename C>
  ListPartition RefineTyped(const P* parent, const C* col, std::size_t domain,
                            RefineScratch* scratch, RefinePath path,
                            PartId self) const;

  /// Exactly one of these is non-empty (for num_rows_ > 0): the one
  /// matching `width()`.
  std::vector<std::uint8_t> c8_;
  std::vector<std::uint16_t> c16_;
  std::vector<std::int32_t> c32_;
  std::size_t num_rows_ = 0;
  std::int32_t num_groups_ = 0;
};

}  // namespace ocdd::core

#endif  // OCDD_CORE_LIST_PARTITION_H_
