#ifndef OCDD_OD_ATTRIBUTE_LIST_H_
#define OCDD_OD_ATTRIBUTE_LIST_H_

#include <cstddef>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

#include "relation/coded_relation.h"

namespace ocdd::od {

using rel::ColumnId;

/// An ordered list of attributes — the `X`, `Y` of the paper's notation
/// (Table 2). Unlike a set, position matters: `[A,B] ≠ [B,A]`.
///
/// `AttributeList` is a small value type; discovery algorithms copy lists
/// freely (they are short — bounded by the schema width).
class AttributeList {
 public:
  AttributeList() = default;
  explicit AttributeList(std::vector<ColumnId> attrs)
      : attrs_(std::move(attrs)) {}
  AttributeList(std::initializer_list<ColumnId> attrs) : attrs_(attrs) {}

  std::size_t size() const { return attrs_.size(); }
  bool empty() const { return attrs_.empty(); }
  ColumnId operator[](std::size_t i) const { return attrs_[i]; }
  const std::vector<ColumnId>& ids() const { return attrs_; }

  bool Contains(ColumnId id) const {
    for (ColumnId a : attrs_) {
      if (a == id) return true;
    }
    return false;
  }

  /// True when the two lists share no attribute.
  bool DisjointWith(const AttributeList& other) const;

  /// Returns this list with `id` appended (`XA` shorthand of Table 2).
  AttributeList WithAppended(ColumnId id) const;

  /// Concatenation (`XY` shorthand of Table 2).
  AttributeList Concat(const AttributeList& other) const;

  /// Returns the list with every attribute already seen earlier removed —
  /// the canonical form under the Normalization axiom (AX3):
  /// [A,B,A] -> [A,B].
  AttributeList Normalized() const;

  /// True if `prefix` is a (not necessarily proper) prefix of this list.
  bool HasPrefix(const AttributeList& prefix) const;

  /// Renders as "[name,name,...]" using relation column names.
  std::string ToString(const rel::CodedRelation& relation) const;
  /// Renders as "[3,1,...]" with raw column ids.
  std::string ToString() const;

  friend bool operator==(const AttributeList& a, const AttributeList& b) {
    return a.attrs_ == b.attrs_;
  }
  friend bool operator<(const AttributeList& a, const AttributeList& b) {
    return a.attrs_ < b.attrs_;
  }

 private:
  std::vector<ColumnId> attrs_;
};

/// FNV-style hash for use in level-deduplication hash sets.
struct AttributeListHash {
  std::size_t operator()(const AttributeList& l) const {
    std::size_t h = 1469598103934665603ULL;
    for (ColumnId id : l.ids()) {
      h ^= id + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return h;
  }
};

}  // namespace ocdd::od

#endif  // OCDD_OD_ATTRIBUTE_LIST_H_
