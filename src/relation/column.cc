#include "relation/column.h"

#include <cassert>

namespace ocdd::rel {

Column Column::FromValues(DataType type, const std::vector<Value>& values) {
  Column col(type);
  for (const Value& v : values) col.Append(v);
  return col;
}

Value Column::ValueAt(std::size_t row) const {
  if (nulls_[row]) return Value::Null();
  switch (type_) {
    case DataType::kInt:
      return Value::Int(ints_[row]);
    case DataType::kDouble:
      return Value::Double(doubles_[row]);
    case DataType::kString:
      return Value::String(std::string(string_at(row)));
  }
  return Value::Null();
}

void Column::Append(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  switch (type_) {
    case DataType::kInt:
      assert(v.is_int());
      AppendInt(v.is_int() ? v.int_value() : 0);
      break;
    case DataType::kDouble:
      assert(v.is_int() || v.is_double());
      AppendDouble(v.is_double() ? v.double_value()
                   : v.is_int()  ? static_cast<double>(v.int_value())
                                 : 0.0);
      break;
    case DataType::kString:
      assert(v.is_string());
      AppendString(v.is_string() ? std::string_view(v.string_value())
                                 : std::string_view());
      break;
  }
}

void Column::AppendNull() {
  nulls_.push_back(true);
  switch (type_) {
    case DataType::kInt:
      ints_.push_back(0);
      break;
    case DataType::kDouble:
      doubles_.push_back(0.0);
      break;
    case DataType::kString:
      string_begins_.push_back(chars_.size());
      break;
  }
}

void Column::Extend(const Column& tail) {
  assert(tail.type_ == type_);
  nulls_.insert(nulls_.end(), tail.nulls_.begin(), tail.nulls_.end());
  ints_.insert(ints_.end(), tail.ints_.begin(), tail.ints_.end());
  doubles_.insert(doubles_.end(), tail.doubles_.begin(), tail.doubles_.end());
  const std::size_t base = chars_.size();
  chars_ += tail.chars_;
  for (std::size_t r = 1; r < tail.string_begins_.size(); ++r) {
    string_begins_.push_back(base + tail.string_begins_[r]);
  }
}

}  // namespace ocdd::rel
