#ifndef OCDD_OD_DEPENDENCY_H_
#define OCDD_OD_DEPENDENCY_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "od/attribute_list.h"
#include "relation/coded_relation.h"

namespace ocdd::od {

/// An order dependency `lhs → rhs` ("lhs orders rhs", Definition 2.2):
/// for every pair of tuples, `p ⪯_lhs q  ⟹  p ⪯_rhs q`.
struct OrderDependency {
  AttributeList lhs;
  AttributeList rhs;

  std::string ToString(const rel::CodedRelation& relation) const;
  std::string ToString() const;

  friend bool operator==(const OrderDependency& a, const OrderDependency& b) {
    return a.lhs == b.lhs && a.rhs == b.rhs;
  }
  friend bool operator<(const OrderDependency& a, const OrderDependency& b) {
    if (a.lhs == b.lhs) return a.rhs < b.rhs;
    return a.lhs < b.lhs;
  }
};

/// An order compatibility dependency `lhs ~ rhs` (Definition 2.4):
/// `lhs.Concat(rhs) ↔ rhs.Concat(lhs)`. The relation is symmetric;
/// `Canonical()` orders the smaller side first so that sets of OCDs
/// deduplicate naturally.
struct OrderCompatibility {
  AttributeList lhs;
  AttributeList rhs;

  OrderCompatibility Canonical() const& {
    if (rhs < lhs) return {rhs, lhs};
    return *this;
  }
  /// Swaps the sides in place rather than copying them.
  OrderCompatibility Canonical() && {
    if (rhs < lhs) std::swap(lhs, rhs);
    return std::move(*this);
  }

  std::string ToString(const rel::CodedRelation& relation) const;
  std::string ToString() const;

  friend bool operator==(const OrderCompatibility& a,
                         const OrderCompatibility& b) {
    return a.lhs == b.lhs && a.rhs == b.rhs;
  }
  friend bool operator<(const OrderCompatibility& a,
                        const OrderCompatibility& b) {
    if (a.lhs == b.lhs) return a.rhs < b.rhs;
    return a.lhs < b.lhs;
  }
};

/// A functional dependency `lhs → rhs` over attribute *sets*
/// (Definition 2.3). `lhs` is kept sorted; `rhs` is a single attribute
/// (minimal FDs are reported in this standard single-RHS form).
struct FunctionalDependency {
  std::vector<ColumnId> lhs;  ///< sorted, duplicate-free
  ColumnId rhs = 0;

  std::string ToString(const rel::CodedRelation& relation) const;
  std::string ToString() const;

  friend bool operator==(const FunctionalDependency& a,
                         const FunctionalDependency& b) {
    return a.lhs == b.lhs && a.rhs == b.rhs;
  }
  friend bool operator<(const FunctionalDependency& a,
                        const FunctionalDependency& b) {
    if (a.lhs == b.lhs) return a.rhs < b.rhs;
    return a.lhs < b.lhs;
  }
};

/// FASTOD's set-based canonical order dependencies (§6, [7]).
///
/// Two forms share this struct:
///  * constancy  — `context : [] ↦ right`  (`left` unused):
///    `right` is constant within every equivalence class of `context`;
///  * compatibility — `context : left ~ right`:
///    `left` and `right` are order compatible within every class of
///    `context`.
struct CanonicalOd {
  enum class Kind { kConstancy, kOrderCompatible };

  Kind kind = Kind::kConstancy;
  std::vector<ColumnId> context;  ///< sorted, duplicate-free
  ColumnId left = 0;              ///< only for kOrderCompatible
  ColumnId right = 0;

  std::string ToString(const rel::CodedRelation& relation) const;
  std::string ToString() const;

  friend bool operator==(const CanonicalOd& a, const CanonicalOd& b) {
    return a.kind == b.kind && a.context == b.context && a.left == b.left &&
           a.right == b.right;
  }
  friend bool operator<(const CanonicalOd& a, const CanonicalOd& b) {
    if (a.kind != b.kind) return a.kind < b.kind;
    if (a.context != b.context) return a.context < b.context;
    if (a.left != b.left) return a.left < b.left;
    return a.right < b.right;
  }
};

}  // namespace ocdd::od

#endif  // OCDD_OD_DEPENDENCY_H_
