#ifndef OCDD_RELATION_CODED_RELATION_H_
#define OCDD_RELATION_CODED_RELATION_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "relation/relation.h"

namespace ocdd::rel {

/// Storage width of a dense code vector. The discovery kernels are
/// templated over the width so the hot loops stream the narrowest
/// representation a column (or partition) fits in — on low-cardinality
/// data this divides the check kernels' memory traffic by 4.
enum class CodeWidth : std::uint8_t {
  k8 = 1,
  k16 = 2,
  k32 = 4,
};

/// The narrowest width that can hold codes in [0, num_distinct).
inline CodeWidth WidthForDistinct(std::int64_t num_distinct) {
  if (num_distinct <= 256) return CodeWidth::k8;
  if (num_distinct <= 65536) return CodeWidth::k16;
  return CodeWidth::k32;
}

/// Options controlling dictionary encoding.
struct EncodeOptions {
  /// Rank values by their string rendering instead of their natural typed
  /// order. Mirrors FASTOD's all-columns-are-strings behaviour (§5.2.2) and
  /// OCDDISCOVER's optional lexicographic mode.
  bool force_lexicographic = false;
};

/// One order-preserving dictionary-encoded column.
///
/// `codes[row]` is the dense rank of the row's value among the column's
/// distinct values: equal values share a code and `value_a < value_b` implies
/// `code_a < code_b`. The paper's NULL semantics (`NULL = NULL`,
/// `NULLS FIRST`, §4.3) are baked in: all NULLs share the smallest code.
/// Every comparison made by the discovery algorithms thus reduces to an
/// `int32` comparison.
///
/// `codes` is the canonical form. The narrow mirrors (`codes8`/`codes16`)
/// are *derived*: they are rebuilt by
/// `CodedRelation::Encode`/`FromColumns`/`HeadRows` and must never be
/// edited directly. Code that mutates `codes` by hand must round-trip the
/// column through `FromColumns` before the kernels see it (every in-tree
/// construction site already does).
struct CodedColumn {
  std::string name;
  DataType source_type = DataType::kString;
  std::vector<std::int32_t> codes;
  /// Number of distinct codes, counting the NULL class if present.
  std::int32_t num_distinct = 0;
  bool has_nulls = false;

  /// Derived narrow mirrors: exactly one of `codes8` (d ≤ 256) or
  /// `codes16` (256 < d ≤ 65536) is populated for non-empty columns that
  /// fit; wider columns expose only `codes`.
  std::vector<std::uint8_t> codes8;
  std::vector<std::uint16_t> codes16;

  bool is_constant() const { return num_distinct <= 1; }

  /// Narrowest storage this column carries.
  CodeWidth narrow_width() const { return WidthForDistinct(num_distinct); }

  /// Rebuilds the derived forms from `codes`. Internal; called by the
  /// CodedRelation factories.
  void SyncCompressedForms();
};

/// Read-only view of a column's narrowest code array; the kernels'
/// width-dispatch handle.
struct CodeView {
  const void* data = nullptr;
  CodeWidth width = CodeWidth::k32;

  std::int32_t At(std::size_t row) const {
    switch (width) {
      case CodeWidth::k8:
        return static_cast<const std::uint8_t*>(data)[row];
      case CodeWidth::k16:
        return static_cast<const std::uint16_t*>(data)[row];
      case CodeWidth::k32:
        break;
    }
    return static_cast<const std::int32_t*>(data)[row];
  }
};

/// The narrowest available view of a column's codes (falls back to the
/// canonical int32 array when no mirror is populated).
CodeView NarrowView(const CodedColumn& column);

/// A fully dictionary-encoded relation: the input format of every discovery
/// algorithm's hot loop.
class CodedRelation {
 public:
  CodedRelation() = default;

  /// Encodes every column of `relation` dictionary-first: each distinct
  /// value is interned once, and only the d distinct values are sorted.
  /// O(m + d log d) per column.
  static CodedRelation Encode(const Relation& relation,
                              const EncodeOptions& options = {});

  /// Builds directly from pre-computed coded columns (used by tests and
  /// generators that synthesize code matrices). All columns must have the
  /// same length. Callers that feed the partition-based algorithms
  /// (ListPartition, StrippedPartition, TANE, FASTOD, UCC) must respect the
  /// dense-rank invariant: codes in [0, num_distinct). Narrow mirrors are
  /// (re)derived here, so hand-mutated `codes` become consistent again.
  static CodedRelation FromColumns(std::vector<CodedColumn> columns);

  std::size_t num_rows() const { return num_rows_; }
  std::size_t num_columns() const { return columns_.size(); }
  const CodedColumn& column(ColumnId id) const { return columns_[id]; }
  const std::vector<CodedColumn>& columns() const { return columns_; }

  std::int32_t code(std::size_t row, ColumnId col) const {
    return columns_[col].codes[row];
  }
  const std::string& column_name(ColumnId col) const {
    return columns_[col].name;
  }

  /// Shannon entropy (natural log) of the column's value distribution —
  /// Definition 5.1 of the paper. 0 for constant columns, ln(m) when all
  /// values are distinct.
  double ColumnEntropy(ColumnId col) const;

  /// Stable 64-bit content fingerprint over shape, column names, and every
  /// code, FNV-1a style. Checkpoint snapshots store it so a `--resume`
  /// against a different input is detected and rejected rather than
  /// producing a silently inconsistent merge of two relations' results.
  std::uint64_t Fingerprint() const;

  /// Restriction to a column subset, in the given order (row data shared by
  /// copy of code vectors).
  CodedRelation ProjectColumns(const std::vector<ColumnId>& cols) const;

  /// Restriction to the first `n` rows, with codes re-densified so the
  /// dense-rank invariant (codes in [0, num_distinct)) keeps holding.
  CodedRelation HeadRows(std::size_t n) const;

 private:
  std::vector<CodedColumn> columns_;
  std::size_t num_rows_ = 0;
};

}  // namespace ocdd::rel

#endif  // OCDD_RELATION_CODED_RELATION_H_
