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

/// Infers the most specific type of each column of a row-major matrix of
/// raw text fields (`cells.size() / width` rows) and returns the typed
/// columns. A column is kInt if every non-NULL field parses as int64, else
/// kDouble if every non-NULL field parses as double, else kString (numbers
/// are parsed after whitespace stripping; strings keep their raw bytes).
/// An all-NULL or empty column is kString.
///
/// One pass, row by row: each column is filled while it is typed, and a
/// field that does not parse refills that column's earlier rows at the next
/// type, so a column restarts at most twice.
std::vector<Column> InferColumns(const std::vector<std::string_view>& cells,
                                 std::size_t width,
                                 const TypeInferenceOptions& opts);

}  // namespace ocdd::rel

#endif  // OCDD_RELATION_TYPE_INFERENCE_H_
