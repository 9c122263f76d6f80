#include "core/list_table.h"

#include <algorithm>
#include <numeric>
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

std::vector<std::uint32_t> ListTable::LexRanks(
    const std::vector<std::uint32_t>& column_rank) const {
  const std::size_t n = nodes_.size();
  // Each list's children, grouped by parent: group p + 1 holds the
  // children of list p, group 0 the one-column lists. Subtree sizes sum
  // upwards, as a list's id is above its parent's.
  std::vector<std::uint32_t> subtree(n, 1);
  std::vector<std::uint32_t> begin(n + 3, 0);
  for (std::size_t id = n; id-- > 0;) {
    const ListId parent = nodes_[id].parent;
    if (parent != kNoListId) subtree[parent] += subtree[id];
    ++begin[parent + 3];  // kNoListId + 3 wraps to 2, group 0's count
  }
  std::partial_sum(begin.begin(), begin.end(), begin.begin());
  std::vector<ListId> children(n);
  for (std::size_t id = 0; id < n; ++id) {
    children[begin[nodes_[id].parent + 2]++] = static_cast<ListId>(id);
  }
  // Now group g is children[begin[g], begin[g + 1]); order it by column.
  auto key = [&](ListId id) {
    const rel::ColumnId c = nodes_[id].last;
    return column_rank.empty() ? c : column_rank[c];
  };
  // A list ranks after its parent and its earlier siblings' subtrees; a
  // parent's id is below its children's, so it is ranked first.
  std::vector<std::uint32_t> rank(n);
  for (std::size_t g = 0; g <= n; ++g) {
    if (begin[g] == begin[g + 1]) continue;
    auto* first = children.data() + begin[g];
    auto* last = children.data() + begin[g + 1];
    std::sort(first, last, [&](ListId a, ListId b) { return key(a) < key(b); });
    std::uint32_t next = g == 0 ? 0 : rank[g - 1] + 1;
    for (auto* it = first; it != last; ++it) {
      rank[*it] = next;
      next += subtree[*it];
    }
  }
  return rank;
}

std::vector<Candidate> SortPairs(const std::vector<Candidate>& pairs,
                                 const std::vector<std::uint32_t>& rank,
                                 bool symmetric) {
  std::vector<std::uint64_t> keys;
  keys.reserve(pairs.size());
  for (const Candidate& c : pairs) {
    std::uint32_t x = rank[c.x];
    std::uint32_t y = rank[c.y];
    if (symmetric && y < x) std::swap(x, y);
    keys.push_back(PairKey(x, y));
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::vector<ListId> by_rank(rank.size());
  for (std::size_t id = 0; id < rank.size(); ++id) {
    by_rank[rank[id]] = static_cast<ListId>(id);
  }
  std::vector<Candidate> sorted;
  sorted.reserve(keys.size());
  for (std::uint64_t key : keys) {
    sorted.push_back(Candidate{by_rank[key >> 32], by_rank[key & 0xFFFFFFFFu]});
  }
  return sorted;
}

}  // namespace ocdd::core
