#ifndef OCDD_RELATION_TYPE_INFERENCE_H_
#define OCDD_RELATION_TYPE_INFERENCE_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "relation/column.h"

namespace ocdd::rel {

/// Options controlling how raw text fields become typed values.
struct TypeInferenceOptions {
  /// Strings that denote NULL (compared after whitespace stripping).
  /// The defaults match the HPI profiling datasets ("" and "?") plus the
  /// SQL spelling.
  std::vector<std::string> null_markers = {"", "?", "NULL", "null"};

  /// When true, skip inference entirely and treat every column as kString.
  /// This mirrors FASTOD's behaviour as described in the paper (§5.2.2),
  /// where all columns compare lexicographically.
  bool force_lexicographic = false;
};

/// Returns true if `field` denotes NULL under `opts`.
bool IsNullMarker(std::string_view field, const TypeInferenceOptions& opts);

/// Types the records of a table of raw text fields straight into columns,
/// one record at a time. A column is kInt if every non-NULL field parses as
/// int64, else kDouble if every non-NULL field parses as double, else
/// kString (numbers are parsed after whitespace stripping; strings keep
/// their raw bytes). An all-NULL or empty column is kString.
///
/// Each column is filled at its current type. A field that does not parse
/// at it widens the column from that row on, to the first type it parses
/// at. The rows before are re-derived from their text at the column's
/// final type, in one replay of the records once every record is added:
/// `rows_to_replay()` leading records, given to `Replay` in order. A field
/// that parses at a type parses at every wider one, so a replayed field
/// never widens again; and re-deriving from the text, never from a stored
/// int, keeps "-0" −0.0 in a double column.
class ColumnFiller {
 public:
  ColumnFiller(std::size_t width, const TypeInferenceOptions& opts);

  /// Appends one record: `fields` points at `width` fields.
  void Add(const std::string_view* fields);

  /// The leading records `Replay` must be given before `Finish`: 0 when no
  /// column widened after its first row.
  std::size_t rows_to_replay() const;

  /// Re-derives the next leading record of every column that widened
  /// after it.
  void Replay(const std::string_view* fields);

  /// The typed columns; the filler is spent.
  std::vector<Column> Finish();

 private:
  struct Slot {
    /// Rows [since, rows_) at the column's current type.
    Column tail;
    std::size_t since = 0;
    /// Rows [0, since) at the final type, as `Replay` re-derives them.
    Column head;
  };

  /// Appends `field` at `column`'s type; false (nothing appended) when a
  /// non-NULL field does not parse as that type.
  bool Append(std::string_view field, Column* column) const;

  const TypeInferenceOptions& opts_;
  std::vector<Slot> slots_;
  std::size_t rows_ = 0;
  std::size_t replayed_ = 0;
  /// NULL markers by their first byte; the empty marker apart.
  bool marker_first_[256] = {};
  bool empty_is_null_ = false;
  std::size_t max_marker_ = 0;
};

}  // namespace ocdd::rel

#endif  // OCDD_RELATION_TYPE_INFERENCE_H_
