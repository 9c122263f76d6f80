#ifndef OCDD_CORE_CHECKER_H_
#define OCDD_CORE_CHECKER_H_

#include "od/attribute_list.h"
#include "relation/coded_relation.h"

namespace ocdd::core {

using od::AttributeList;

/// Outcome of a full OD check, following the split/swap dichotomy of
/// Theorem 2 in [16] (restated in §2.2 of the paper): when `X → Y` fails,
/// either two tuples tie on `X` but differ on `Y` (a *split*, i.e. the
/// embedded FD fails) or two tuples strictly ordered by `X` are inverted on
/// `Y` (a *swap*, i.e. order compatibility fails) — or both.
struct OdCheckOutcome {
  bool has_split = false;
  bool has_swap = false;

  bool valid() const { return !has_split && !has_swap; }
};

/// Validity checker for OD/OCD candidates over a coded relation
/// (paper §4.3, "Order Checking").
///
/// All methods are const and thread-safe: the parallel OCDDISCOVER driver
/// calls them concurrently from the worker pool. Each check sorts a fresh
/// row index by the candidate's left-hand side — `O(m log m)` comparisons,
/// matching the paper's "Checking with Indexes". The walks reach it only
/// through `PartitionChecker` (partition_checker.h), as the fallback for
/// lists without a cached partition; that class also counts the checks.
class OrderChecker {
 public:
  explicit OrderChecker(const rel::CodedRelation& relation)
      : relation_(relation) {}

  OrderChecker(const OrderChecker&) = delete;
  OrderChecker& operator=(const OrderChecker&) = delete;

  /// OCD single check (Theorem 4.1): `X ~ Y` iff the OD `XY → YX` holds.
  /// Since both sides of that OD carry the same attribute multiset, no split
  /// can occur; the scan only looks for swaps.
  bool HoldsOcd(const AttributeList& x, const AttributeList& y) const;

  /// Full OD check `lhs → rhs` with exact split/swap classification.
  ///
  /// The scan sorts by `lhs` with `rhs` as tie-break, then walks the
  /// lhs-groups: a group whose first and last rows differ on `rhs` is a
  /// split; a group whose first row is rhs-below the running rhs-maximum of
  /// earlier groups is a swap. When `early_exit` is set the scan stops at
  /// the first violation (the returned outcome then reports *a* violation,
  /// not necessarily both kinds).
  OdCheckOutcome CheckOd(const AttributeList& lhs, const AttributeList& rhs,
                         bool early_exit) const;

  /// Convenience: `CheckOd(lhs, rhs, /*early_exit=*/true).valid()`.
  bool HoldsOd(const AttributeList& lhs, const AttributeList& rhs) const;

  const rel::CodedRelation& relation() const { return relation_; }

 private:
  const rel::CodedRelation& relation_;
};

}  // namespace ocdd::core

#endif  // OCDD_CORE_CHECKER_H_
