#include "od/attribute_list.h"

#include <algorithm>

namespace ocdd::od {

bool AttributeList::DisjointWith(const AttributeList& other) const {
  for (ColumnId id : attrs_) {
    if (other.Contains(id)) return false;
  }
  return true;
}

AttributeList AttributeList::WithAppended(ColumnId id) const {
  std::vector<ColumnId> out = attrs_;
  out.push_back(id);
  return AttributeList(std::move(out));
}

AttributeList AttributeList::Concat(const AttributeList& other) const {
  std::vector<ColumnId> out = attrs_;
  out.insert(out.end(), other.attrs_.begin(), other.attrs_.end());
  return AttributeList(std::move(out));
}

AttributeList AttributeList::Normalized() const {
  std::vector<ColumnId> out;
  out.reserve(attrs_.size());
  for (ColumnId id : attrs_) {
    if (std::find(out.begin(), out.end(), id) == out.end()) out.push_back(id);
  }
  return AttributeList(std::move(out));
}

bool AttributeList::HasPrefix(const AttributeList& prefix) const {
  if (prefix.size() > size()) return false;
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    if (attrs_[i] != prefix.attrs_[i]) return false;
  }
  return true;
}

std::string AttributeList::ToString(const rel::CodedRelation& relation) const {
  std::string out = "[";
  for (std::size_t i = 0; i < attrs_.size(); ++i) {
    if (i > 0) out += ",";
    out += relation.column_name(attrs_[i]);
  }
  out += "]";
  return out;
}

std::string AttributeList::ToString() const {
  std::string out = "[";
  for (std::size_t i = 0; i < attrs_.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(attrs_[i]);
  }
  out += "]";
  return out;
}

}  // namespace ocdd::od
