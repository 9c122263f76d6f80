#ifndef OCDD_CORE_LIST_TABLE_H_
#define OCDD_CORE_LIST_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/run_context.h"
#include "core/list_partition.h"
#include "od/attribute_list.h"
#include "relation/coded_relation.h"

namespace ocdd::core {

/// Dense id of one attribute list interned in a `ListTable`; `kNoListId`
/// names none.
using ListId = std::uint32_t;
inline constexpr ListId kNoListId = 0xFFFFFFFFu;

/// Packs two 32-bit ids (or an id and a column) into one 64-bit key.
inline std::uint64_t PairKey(std::uint32_t hi, std::uint32_t lo) {
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
}

/// One candidate of a lattice walk, or one claim it emits: the interned
/// lists of `x ~ y` (ORDER reads it as `x → y`), ids of the walk's
/// `ListTable`.
struct Candidate {
  ListId x = kNoListId;
  ListId y = kNoListId;

  friend bool operator==(const Candidate& a, const Candidate& b) {
    return a.x == b.x && a.y == b.y;
  }
};

/// Open-addressing index of dense 32-bit ids whose keys the caller keeps
/// (ids `0..n-1`, each with a 64-bit key): one flat array of ids, linear
/// probing, at most half full, so a slot costs 4 bytes. The caller's
/// `same(id)` confirms a probed id has the key sought.
class IdIndex {
 public:
  static constexpr std::uint32_t kEmpty = 0xFFFFFFFFu;

  /// Slot holding the id `same` accepts, or the empty slot where the key
  /// goes.
  template <typename Same>
  std::size_t Slot(std::uint64_t key, const Same& same) const {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = Home(key);; i = (i + 1) & mask) {
      if (slots_[i] == kEmpty || same(slots_[i])) return i;
    }
  }

  /// The id in `slot`, or `kEmpty`.
  std::uint32_t at(std::size_t slot) const { return slots_[slot]; }
  void Set(std::size_t slot, std::uint32_t id) { slots_[slot] = id; }

  /// Heap bytes `Reserve(count)` allocates (0 when it does not grow).
  std::size_t GrowthBytes(std::size_t count) const;

  /// Sizes an empty index for `count` ids, so that adding them grows
  /// nothing.
  void Presize(std::size_t count) {
    std::size_t size = slots_.size();
    while (2 * count > size) size *= 2;
    slots_.assign(size, kEmpty);
  }

  /// Grows the index, if `count` ids would pass half full, and re-inserts
  /// ids `0..count-1` under `key_of(id)`; true when it grew.
  template <typename KeyOf>
  bool Reserve(std::size_t count, const KeyOf& key_of) {
    if (GrowthBytes(count) == 0) return false;
    slots_.assign(2 * slots_.size(), kEmpty);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t id = 0; id < count; ++id) {
      std::size_t i = Home(key_of(static_cast<std::uint32_t>(id)));
      while (slots_[i] != kEmpty) i = (i + 1) & mask;
      slots_[i] = static_cast<std::uint32_t>(id);
    }
    return true;
  }

 private:
  std::size_t Home(std::uint64_t key) const {
    // Fibonacci hashing: the top bits of the product index the array.
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> 32) &
           (slots_.size() - 1);
  }
  std::vector<std::uint32_t> slots_ =
      std::vector<std::uint32_t>(16, kEmpty);  // power-of-two size
};

/// Every attribute list of one lattice walk, interned once under a dense
/// `ListId`. A list is its parent's list plus one column, so the table is
/// prefix-closed: `Child(parent, column)` names `parent ++ [column]` and
/// interns it on first use through an `IdIndex` keyed by
/// `(parent id, column)`. For
/// each id the table keeps the parent id, the last column, the length,
/// the materialised `AttributeList` (for emission, checkpoints and the
/// sort fallback) and the `PartId` of its cached sorted partition.
///
/// Ids are handed out in interning order, and the walks intern only in
/// their sequential phases, so ids never depend on the thread count.
///
/// Every new list is charged to the RunContext memory budget: its node,
/// its materialised list, and any growth of the index. A refused
/// charge interns nothing, returns `kNoListId` and latches `kMemoryBudget`
/// (RunContext::ChargeMemory), which ends the walk. The destructor returns
/// the charge.
///
/// Not thread-safe for writers: `Child` and `Intern` must not overlap any
/// other call; the const accessors may run concurrently with each other.
class ListTable {
 public:
  /// `ctx` null = nothing is charged.
  explicit ListTable(RunContext* ctx = nullptr) : ctx_(ctx) {}
  ~ListTable();

  ListTable(const ListTable&) = delete;
  ListTable& operator=(const ListTable&) = delete;

  /// Id of `parent ++ [column]` (`parent` = `kNoListId`: the list
  /// `[column]`), interned on first use; `kNoListId` when its charge was
  /// refused.
  ListId Child(ListId parent, rel::ColumnId column);

  /// Id of `list`, interning it and its prefixes; `kNoListId` for an empty
  /// list or a refused charge.
  ListId Intern(const od::AttributeList& list);

  ListId parent(ListId id) const { return nodes_[id].parent; }
  rel::ColumnId last(ListId id) const { return nodes_[id].last; }
  std::size_t length(ListId id) const { return nodes_[id].length; }
  /// The materialised list; the reference stays valid for the table's
  /// lifetime.
  const od::AttributeList& list(ListId id) const { return lists_[id]; }

  /// Id of the sorted partition cached for the list, or `kNoPartId`.
  PartId part(ListId id) const { return nodes_[id].part; }
  void set_part(ListId id, PartId part) { nodes_[id].part = part; }

  std::size_t size() const { return nodes_.size(); }

  /// Each list's place in the lexicographic order of the table's lists
  /// (`od::AttributeList`'s `<`), by id: the preorder of the prefix trie,
  /// with each list's children in column order. `column_rank[c]`, when
  /// given, orders column `c` in place of its id.
  std::vector<std::uint32_t> LexRanks(
      const std::vector<std::uint32_t>& column_rank = {}) const;

  /// Bytes charged to the RunContext.
  std::size_t charged_bytes() const { return charged_; }

 private:
  struct Node {
    ListId parent;
    rel::ColumnId last;
    std::uint32_t length;
    PartId part;
  };

  /// Slot of `(parent, column)` in `index_`.
  std::size_t Slot(ListId parent, rel::ColumnId column) const;

  RunContext* ctx_;
  std::vector<Node> nodes_;
  std::deque<od::AttributeList> lists_;  // stable references
  IdIndex index_;                        // by (parent id, column)
  std::size_t charged_ = 0;
};

/// `pairs` in the lexicographic order of their lists, each once, with
/// `rank` from `ListTable::LexRanks`. Two lists are equal exactly when their
/// ids are, so the order is that of the materialised pairs. `symmetric`
/// first puts each pair's lesser list first, as
/// `od::OrderCompatibility::Canonical` does.
std::vector<Candidate> SortPairs(const std::vector<Candidate>& pairs,
                                 const std::vector<std::uint32_t>& rank,
                                 bool symmetric);

}  // namespace ocdd::core

#endif  // OCDD_CORE_LIST_TABLE_H_
