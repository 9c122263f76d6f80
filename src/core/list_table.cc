#include "core/list_table.h"

#include <utility>

namespace ocdd::core {

ListTable::~ListTable() {
  if (ctx_ != nullptr) ctx_->ReleaseMemory(charged_);
}

std::size_t IdIndex::GrowthBytes(std::size_t count) const {
  if (2 * count <= slots_.size()) return 0;
  return slots_.size() * sizeof(std::uint32_t);
}

std::size_t ListTable::Slot(ListId parent, rel::ColumnId column) const {
  return index_.Slot(PairKey(parent, column), [&](ListId id) {
    return nodes_[id].parent == parent && nodes_[id].last == column;
  });
}

ListId ListTable::Child(ListId parent, rel::ColumnId column) {
  const std::size_t slot = Slot(parent, column);
  if (index_.at(slot) != IdIndex::kEmpty) return index_.at(slot);

  const std::uint32_t length =
      parent == kNoListId ? 1 : nodes_[parent].length + 1;
  const std::size_t bytes = sizeof(Node) + sizeof(od::AttributeList) +
                            length * sizeof(rel::ColumnId) +
                            index_.GrowthBytes(nodes_.size() + 1);
  if (ctx_ != nullptr && !ctx_->ChargeMemory(bytes)) return kNoListId;
  charged_ += bytes;

  std::vector<rel::ColumnId> ids;
  ids.reserve(length);
  if (parent != kNoListId) {
    const std::vector<rel::ColumnId>& prefix = lists_[parent].ids();
    ids.assign(prefix.begin(), prefix.end());
  }
  ids.push_back(column);
  const auto id = static_cast<ListId>(nodes_.size());
  nodes_.push_back(Node{parent, column, length, kNoPartId});
  lists_.emplace_back(std::move(ids));
  // A grown index re-inserts every id, the new one too.
  if (!index_.Reserve(nodes_.size(), [&](ListId i) {
        return PairKey(nodes_[i].parent, nodes_[i].last);
      })) {
    index_.Set(slot, id);
  }
  return id;
}

ListId ListTable::Intern(const od::AttributeList& list) {
  ListId id = kNoListId;
  for (rel::ColumnId column : list.ids()) {
    id = Child(id, column);
    if (id == kNoListId) return kNoListId;
  }
  return id;
}

}  // namespace ocdd::core
