#include "relation/type_inference.h"

#include <algorithm>

#include "common/string_util.h"

namespace ocdd::rel {

namespace {

bool IsStrippedNullMarker(std::string_view stripped,
                          const TypeInferenceOptions& opts) {
  for (const std::string& marker : opts.null_markers) {
    if (stripped == marker) return true;
  }
  return false;
}

/// Appends `field` to `column` under the column's type; false (nothing
/// appended) when a non-NULL field does not parse as that type.
/// `max_marker` is the length of the longest NULL marker.
bool AppendField(std::string_view field, const TypeInferenceOptions& opts,
                 std::size_t max_marker, Column* column) {
  const std::string_view stripped = StripAsciiWhitespace(field);
  if (stripped.size() <= max_marker && IsStrippedNullMarker(stripped, opts)) {
    column->AppendNull();
    return true;
  }
  switch (column->type()) {
    case DataType::kInt: {
      auto v = ParseInt64(stripped);
      if (!v.has_value()) return false;
      column->AppendInt(*v);
      return true;
    }
    case DataType::kDouble: {
      auto v = ParseDouble(stripped);
      if (!v.has_value()) return false;
      column->AppendDouble(*v);
      return true;
    }
    case DataType::kString:
      column->AppendString(field);
      return true;
  }
  return false;
}

DataType Wider(DataType type) {
  return type == DataType::kInt ? DataType::kDouble : DataType::kString;
}

}  // namespace

bool IsNullMarker(std::string_view field, const TypeInferenceOptions& opts) {
  return IsStrippedNullMarker(StripAsciiWhitespace(field), opts);
}

std::vector<Column> InferColumns(const std::vector<std::string_view>& cells,
                                 std::size_t width,
                                 const TypeInferenceOptions& opts) {
  const std::size_t rows = width == 0 ? 0 : cells.size() / width;
  const DataType first =
      opts.force_lexicographic ? DataType::kString : DataType::kInt;
  std::size_t max_marker = 0;
  for (const std::string& marker : opts.null_markers) {
    max_marker = std::max(max_marker, marker.size());
  }
  std::vector<Column> columns(width, Column(first));
  for (Column& column : columns) column.Reserve(rows);

  for (std::size_t r = 0; r < rows; ++r) {
    const std::string_view* row = cells.data() + r * width;
    for (std::size_t c = 0; c < width; ++c) {
      if (AppendField(row[c], opts, max_marker, &columns[c])) continue;
      // Rows 0..r of column c do not all fit its type: refill them at the
      // next wider one. A kString refill cannot fail.
      DataType type = columns[c].type();
      bool filled = false;
      while (!filled) {
        type = Wider(type);
        Column wider(type);
        wider.Reserve(rows);
        filled = true;
        for (std::size_t rr = 0; rr <= r && filled; ++rr) {
          filled = AppendField(cells[rr * width + c], opts, max_marker,
                               &wider);
        }
        if (filled) columns[c] = std::move(wider);
      }
    }
  }

  // A numeric column that never saw a value is all NULL: kString.
  for (std::size_t c = 0; c < width; ++c) {
    if (columns[c].type() == DataType::kString) continue;
    bool null_only = true;
    for (std::size_t r = 0; r < rows && null_only; ++r) {
      null_only = columns[c].is_null(r);
    }
    if (!null_only) continue;
    Column nulls(DataType::kString);
    for (std::size_t r = 0; r < rows; ++r) nulls.AppendNull();
    columns[c] = std::move(nulls);
  }
  return columns;
}

}  // namespace ocdd::rel
