#include "relation/type_inference.h"

#include <algorithm>
#include <cassert>

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

DataType Wider(DataType type) {
  return type == DataType::kInt ? DataType::kDouble : DataType::kString;
}

}  // namespace

bool IsNullMarker(std::string_view field, const TypeInferenceOptions& opts) {
  return IsStrippedNullMarker(StripAsciiWhitespace(field), opts);
}

ColumnFiller::ColumnFiller(std::size_t width, const TypeInferenceOptions& opts)
    : opts_(opts) {
  const DataType first =
      opts.force_lexicographic ? DataType::kString : DataType::kInt;
  slots_.resize(width);
  for (Slot& slot : slots_) slot.tail = Column(first);
  for (const std::string& marker : opts.null_markers) {
    max_marker_ = std::max(max_marker_, marker.size());
    if (marker.empty()) {
      empty_is_null_ = true;
    } else {
      marker_first_[static_cast<unsigned char>(marker[0])] = true;
    }
  }
}

bool ColumnFiller::Append(std::string_view field, Column* column) const {
  const std::string_view stripped = StripAsciiWhitespace(field);
  const bool null =
      stripped.empty()
          ? empty_is_null_
          : stripped.size() <= max_marker_ &&
                marker_first_[static_cast<unsigned char>(stripped[0])] &&
                IsStrippedNullMarker(stripped, opts_);
  if (null) {
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

void ColumnFiller::Add(const std::string_view* fields) {
  for (std::size_t c = 0; c < slots_.size(); ++c) {
    Slot& slot = slots_[c];
    if (Append(fields[c], &slot.tail)) continue;
    // Widen from this row on; a kString append cannot fail.
    DataType type = slot.tail.type();
    do {
      type = Wider(type);
      slot.tail = Column(type);
    } while (!Append(fields[c], &slot.tail));
    slot.since = rows_;
  }
  ++rows_;
}

std::size_t ColumnFiller::rows_to_replay() const {
  std::size_t rows = 0;
  for (const Slot& slot : slots_) rows = std::max(rows, slot.since);
  return rows;
}

void ColumnFiller::Replay(const std::string_view* fields) {
  for (std::size_t c = 0; c < slots_.size(); ++c) {
    Slot& slot = slots_[c];
    if (replayed_ >= slot.since) continue;
    if (replayed_ == 0) slot.head = Column(slot.tail.type());
    [[maybe_unused]] const bool fits = Append(fields[c], &slot.head);
    assert(fits);
  }
  ++replayed_;
}

std::vector<Column> ColumnFiller::Finish() {
  assert(replayed_ == rows_to_replay());
  std::vector<Column> columns;
  columns.reserve(slots_.size());
  for (Slot& slot : slots_) {
    Column column = std::move(slot.tail);
    if (slot.since > 0) {
      slot.head.Extend(column);
      column = std::move(slot.head);
    }
    // A numeric column that never saw a value is all NULL: kString.
    bool null_only = column.type() != DataType::kString;
    for (std::size_t r = 0; r < rows_ && null_only; ++r) {
      null_only = column.is_null(r);
    }
    if (null_only) {
      column = Column(DataType::kString);
      for (std::size_t r = 0; r < rows_; ++r) column.AppendNull();
    }
    columns.push_back(std::move(column));
  }
  return columns;
}

}  // namespace ocdd::rel
