#ifndef OCDD_RELATION_COLUMN_H_
#define OCDD_RELATION_COLUMN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "relation/value.h"

namespace ocdd::rel {

/// Columnar storage for one attribute: a typed value vector plus a null mask.
///
/// Exactly one of the typed stores is populated, matching `type()`; NULL
/// cells hold a default-constructed slot (an empty string) in it and are
/// flagged in the null mask. Strings are stored back to back in one buffer,
/// so a string column costs no allocation per cell.
class Column {
 public:
  /// Creates an empty column of the given type.
  explicit Column(DataType type = DataType::kString) : type_(type) {}

  /// Builds a typed column from row values. Values must match `type` or be
  /// NULL (integer values are widened when `type` is kDouble).
  static Column FromValues(DataType type, const std::vector<Value>& values);

  DataType type() const { return type_; }
  std::size_t size() const { return nulls_.size(); }

  bool is_null(std::size_t row) const { return nulls_[row]; }
  std::int64_t int_at(std::size_t row) const { return ints_[row]; }
  double double_at(std::size_t row) const { return doubles_[row]; }
  std::string_view string_at(std::size_t row) const {
    return std::string_view(chars_).substr(
        string_begins_[row], string_begins_[row + 1] - string_begins_[row]);
  }

  /// Materializes the cell as a `Value` (NULL-aware).
  Value ValueAt(std::size_t row) const;

  /// Appends a cell; `v` must be NULL or match the column type
  /// (ints widen into double columns).
  void Append(const Value& v);

  /// Typed appenders: each must match the column type.
  void AppendNull();
  void AppendInt(std::int64_t v) {
    nulls_.push_back(false);
    ints_.push_back(v);
  }
  void AppendDouble(double v) {
    nulls_.push_back(false);
    doubles_.push_back(v);
  }
  void AppendString(std::string_view v) {
    nulls_.push_back(false);
    chars_.append(v);
    string_begins_.push_back(chars_.size());
  }

  /// Appends every cell of `tail`, which must have this column's type.
  void Extend(const Column& tail);

 private:
  DataType type_;
  std::vector<bool> nulls_;
  std::vector<std::int64_t> ints_;
  std::vector<double> doubles_;
  /// String cell `r` is `chars_[string_begins_[r], string_begins_[r + 1])`.
  std::string chars_;
  std::vector<std::size_t> string_begins_ = {0};
};

}  // namespace ocdd::rel

#endif  // OCDD_RELATION_COLUMN_H_
