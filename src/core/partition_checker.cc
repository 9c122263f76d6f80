#include "core/partition_checker.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/prof.h"

namespace ocdd::core {

using od::AttributeList;

namespace {

/// The checks read one row per distinct tuple only when that leaves at
/// most m / kDistinctTupleDivisor of the m rows.
constexpr std::size_t kDistinctTupleDivisor = 2;

/// Key of the check-memo slot of {x, y}: (lower id, higher id).
std::uint64_t SlotKey(PartId x, PartId y) {
  return x <= y ? PairKey(x, y) : PairKey(y, x);
}

}  // namespace

Frontier::Frontier(Frontier&& other) noexcept
    : lists_(other.lists_),
      ctx_(other.ctx_),
      candidates_(std::move(other.candidates_)),
      seen_(std::move(other.seen_)),
      bytes_(std::exchange(other.bytes_, 0)) {}

Frontier& Frontier::operator=(Frontier&& other) noexcept {
  if (this != &other) {
    ctx_->ReleaseMemory(bytes_);
    lists_ = other.lists_;
    ctx_ = other.ctx_;
    candidates_ = std::move(other.candidates_);
    seen_ = std::move(other.seen_);
    bytes_ = std::exchange(other.bytes_, 0);
  }
  return *this;
}

void Frontier::Reserve(std::size_t count) {
  candidates_.reserve(count);
  seen_.Presize(count);
}

bool Frontier::Add(ListId x, ListId y) {
  if (x == kNoListId || y == kNoListId) return false;
  const Candidate c{x, y};
  const std::size_t slot = seen_.Slot(
      PairKey(x, y), [&](std::uint32_t i) { return candidates_[i] == c; });
  if (seen_.at(slot) != IdIndex::kEmpty) return true;
  const std::size_t bytes = CandidateBytes(*lists_, c);
  if (!ctx_->ChargeMemory(bytes)) return false;
  bytes_ += bytes;
  candidates_.push_back(c);
  if (!seen_.Reserve(candidates_.size(), [&](std::uint32_t i) {
        return PairKey(candidates_[i].x, candidates_[i].y);
      })) {
    seen_.Set(slot, static_cast<std::uint32_t>(candidates_.size() - 1));
  }
  return true;
}

PartitionChecker::PartitionChecker(const rel::CodedRelation& relation,
                                   RunContext& ctx,
                                   std::size_t max_cache_bytes,
                                   bool use_partitions)
    : ctx_(ctx),
      checks_base_(ctx.checks()),
      max_cache_bytes_(max_cache_bytes),
      use_partitions_(use_partitions),
      lists_(&ctx),
      distinct_(DistinctTuples(relation)),
      relation_(distinct_ ? *distinct_ : relation),
      sorter_(relation_) {
  prof::SetRows(relation_.num_rows(), relation.num_rows());
}

PartitionChecker::~PartitionChecker() {
  ctx_.ReleaseMemory(cache_bytes_ + distinct_bytes_);
}

std::optional<rel::CodedRelation> PartitionChecker::DistinctTuples(
    const rel::CodedRelation& relation) {
  const std::size_t m = relation.num_rows();
  const std::size_t most = m / kDistinctTupleDivisor;
  std::vector<rel::ColumnId> chain(relation.num_columns());
  std::iota(chain.begin(), chain.end(), rel::ColumnId{0});
  std::stable_sort(chain.begin(), chain.end(),
                   [&](rel::ColumnId a, rel::ColumnId b) {
                     return relation.column(a).num_distinct >
                            relation.column(b).num_distinct;
                   });
  // The widest column alone usually has too many groups: no refine then.
  if (chain.empty() || most == 0 ||
      static_cast<std::size_t>(relation.column(chain[0]).num_distinct) >
          most) {
    return std::nullopt;
  }
  ListPartition tuples = ListPartition::ForColumn(relation, chain[0]);
  RefineScratch scratch;
  for (std::size_t i = 1; i < chain.size(); ++i) {
    tuples = tuples.Refine(relation, chain[i], &scratch);
    if (static_cast<std::size_t>(tuples.num_groups()) > most) {
      return std::nullopt;
    }
  }

  const auto groups = static_cast<std::size_t>(tuples.num_groups());
  prof::ScopedTimer plan_timer(prof::Phase::kPlan);
  // The first row of each tuple, in row order.
  std::vector<std::uint32_t> rows;
  rows.reserve(groups);
  std::vector<char> seen(groups, 0);
  const rel::CodeView ranks = tuples.view();
  for (std::size_t row = 0; row < m; ++row) {
    char& s = seen[static_cast<std::size_t>(ranks.At(row))];
    if (s == 0) {
      s = 1;
      rows.push_back(static_cast<std::uint32_t>(row));
    }
  }
  std::vector<rel::CodedColumn> columns;
  columns.reserve(relation.num_columns());
  for (const rel::CodedColumn& c : relation.columns()) {
    rel::CodedColumn& out = columns.emplace_back();
    out.name = c.name;
    out.source_type = c.source_type;
    out.num_distinct = c.num_distinct;
    out.has_nulls = c.has_nulls;
    out.codes.reserve(groups);
    for (std::uint32_t row : rows) out.codes.push_back(c.codes[row]);
  }
  rel::CodedRelation distinct =
      rel::CodedRelation::FromColumns(std::move(columns));
  // Charged once built, so a failed build holds no charge. Each kept row
  // costs its int32 code and its narrow mirror's, if any.
  std::size_t bytes = 0;
  for (const rel::CodedColumn& c : distinct.columns()) {
    bytes += c.codes.size() * sizeof(std::int32_t) + c.codes8.size() +
             c.codes16.size() * sizeof(std::uint16_t);
  }
  if (!ChargeShare(bytes)) return std::nullopt;
  distinct_bytes_ = bytes;
  return distinct;
}

bool PartitionChecker::Charge(std::size_t bytes) {
  if (max_cache_bytes_ != 0 && cache_bytes_ + bytes > max_cache_bytes_) {
    return false;
  }
  if (!ChargeShare(bytes)) return false;
  cache_bytes_ += bytes;
  return true;
}

bool PartitionChecker::ChargeShare(std::size_t bytes) {
  const std::size_t budget = ctx_.memory_budget();
  // The cache, the compact copy and the list table share half of the
  // budget; the cache yields, since it can fall back to sorting and the
  // table cannot.
  if (budget != 0 && (cache_bytes_ + distinct_bytes_ + lists_.charged_bytes() +
                              bytes >
                          budget / 2 ||
                      ctx_.memory_used() + bytes > budget)) {
    return false;
  }
  if (!ctx_.ChargeMemory(bytes)) return false;
  prof::AddAlloc(bytes);
  return true;
}

std::vector<PartitionChecker::CheckSlot*> PartitionChecker::Prepare(
    const std::vector<Candidate>& level, ThreadPool* pool,
    bool memoize_checks) {
  std::vector<CheckSlot*> slots(level.size(), nullptr);
  if (!use_partitions_) return slots;
  // Missing lists (and prefixes) by length, deduplicated, in level order.
  std::vector<std::vector<ListId>> layers;
  {
    prof::ScopedTimer plan_timer(prof::Phase::kPlan);
    ReleaseSlots(level);
    std::vector<char> planned(lists_.size(), 0);
    // Longest prefix first: the cache and the plan are both prefix-closed,
    // so the first prefix found in either ends the walk.
    auto plan = [&](ListId list) {
      for (ListId id = list; id != kNoListId; id = lists_.parent(id)) {
        if (lists_.part(id) != kNoPartId || planned[id] != 0) return;
        planned[id] = 1;
        const std::size_t k = lists_.length(id);
        if (layers.size() <= k) layers.resize(k + 1);
        layers[k].push_back(id);
      }
    };
    for (const Candidate& c : level) {
      plan(c.x);
      plan(c.y);
    }
  }

  for (const std::vector<ListId>& layer : layers) {
    if (layer.empty()) continue;
    if (ctx_.ShouldStop()) return slots;  // also notices a passed deadline
    if (!RefineLayer(layer, pool)) return slots;
  }

  if (!memoize_checks) return slots;
  prof::ScopedTimer publish_timer(prof::Phase::kPublish);
  for (std::size_t i = 0; i < level.size(); ++i) {
    const PartId x = lists_.part(level[i].x);
    const PartId y = lists_.part(level[i].y);
    if (x == kNoPartId || y == kNoPartId) continue;
    const std::uint64_t key = SlotKey(x, y);
    auto it = slots_.find(key);
    if (it == slots_.end()) {
      if (!Charge(kSlotBytes)) continue;
      it = slots_.try_emplace(key).first;
    }
    slots[i] = &it->second;
  }
  return slots;
}

void PartitionChecker::ReleaseSlots(const std::vector<Candidate>& level) {
  if (slots_.empty()) return;
  std::vector<std::uint64_t> again;
  for (const Candidate& c : level) {
    const PartId x = lists_.part(c.x);
    const PartId y = lists_.part(c.y);
    if (x != kNoPartId && y != kNoPartId) again.push_back(SlotKey(x, y));
  }
  std::sort(again.begin(), again.end());
  std::size_t released = 0;
  for (auto it = slots_.begin(); it != slots_.end();) {
    if (std::binary_search(again.begin(), again.end(), it->first)) {
      ++it;
      continue;
    }
    it = slots_.erase(it);
    released += kSlotBytes;
  }
  cache_bytes_ -= released;
  ctx_.ReleaseMemory(released);
}

bool PartitionChecker::RefineLayer(const std::vector<ListId>& layer,
                                   ThreadPool* pool) {
  // Resolve each list to (parent's partition id, last column). Pairs the
  // refine memo already holds need no work; a list whose parent a budget
  // refused stays uncached.
  std::vector<std::pair<ListId, std::uint64_t>> waiting;
  std::vector<std::uint64_t> keys;
  {
    prof::ScopedTimer plan_timer(prof::Phase::kPlan);
    for (ListId list : layer) {
      PartId parent = kNoPartId;
      if (lists_.parent(list) != kNoListId) {
        parent = lists_.part(lists_.parent(list));
        if (parent == kNoPartId) continue;
      }
      const std::uint64_t key = PairKey(parent, lists_.last(list));
      auto hit = refined_.find(key);
      if (hit != refined_.end()) {
        lists_.set_part(list, hit->second);
        continue;
      }
      waiting.emplace_back(list, key);
      keys.push_back(key);
    }
    // Sorted by (parent id, column): deterministic, and siblings adjacent.
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  }
  if (keys.empty()) return true;
  // One task per parent: its children refine back to back on one thread,
  // reusing the parent's rank histogram. Single columns have no parent
  // and are one task each.
  std::vector<std::size_t> family_begin;
  for (std::size_t j = 0; j < keys.size(); ++j) {
    const auto parent = static_cast<PartId>(keys[j] >> 32);
    if (j == 0 || parent == kNoPartId ||
        parent != static_cast<PartId>(keys[j - 1] >> 32)) {
      family_begin.push_back(j);
    }
  }
  family_begin.push_back(keys.size());

  struct Job {
    ListPartition result;
    std::uint64_t hash = 0;
    bool aliases_parent = false;
  };
  std::vector<Job> jobs(keys.size());
  auto refine_family = [&](std::size_t f) {
    thread_local RefineScratch scratch;
    scratch.histogram_of = kNoPartId;  // ids are only unique per cache
    for (std::size_t j = family_begin[f]; j < family_begin[f + 1]; ++j) {
      const PartId parent = static_cast<PartId>(keys[j] >> 32);
      const auto column = static_cast<rel::ColumnId>(keys[j] & 0xFFFFFFFFu);
      Job& job = jobs[j];
      if (parent == kNoPartId) {
        job.result = ListPartition::ForColumn(relation_, column);
      } else {
        const ListPartition& p = parts_[parent];
        job.result =
            p.Refine(relation_, column, &scratch, RefinePath::kAuto, parent);
        // A refinement that splits no group renumbers nothing: its ranks
        // are the parent's.
        if (job.result.num_groups() == p.num_groups()) {
          job.aliases_parent = true;
          job.result = ListPartition();
          continue;
        }
      }
      // Shrunk so the budgets are charged for real heap use, not
      // allocator slack.
      prof::ScopedTimer publish_timer(prof::Phase::kPublish);
      job.result.ShrinkToFit();
      job.hash = job.result.ContentHash();
    }
  };
  const std::size_t families = family_begin.size() - 1;
  if (pool != nullptr && families > 1) {
    Status status = pool->ParallelFor(families, refine_family);
    if (!status.ok()) {
      // A refinement threw (allocation failure or similar): contained by
      // the pool; stop the run and let the level unwind.
      ctx_.RequestStop(StopReason::kFaultInjected);
      return false;
    }
  } else {
    for (std::size_t f = 0; f < families; ++f) refine_family(f);
  }

  // Publish in key order: the content index, the budgets and the id
  // numbering see the same sequence at every thread count.
  prof::ScopedTimer publish_timer(prof::Phase::kPublish);
  for (std::size_t j = 0; j < keys.size(); ++j) {
    Job& job = jobs[j];
    const PartId id =
        job.aliases_parent ? static_cast<PartId>(keys[j] >> 32)
                           : Publish(std::move(job.result), job.hash);
    if (id != kNoPartId) refined_.emplace(keys[j], id);
  }
  for (const auto& [list, key] : waiting) {
    auto hit = refined_.find(key);
    if (hit != refined_.end()) lists_.set_part(list, hit->second);
  }
  return true;
}

PartId PartitionChecker::Publish(ListPartition&& result, std::uint64_t hash) {
  auto [first, last] = by_content_.equal_range(hash);
  for (auto it = first; it != last; ++it) {
    if (parts_[it->second].SameContent(result)) return it->second;
  }
  if (!Charge(result.MemoryBytes())) return kNoPartId;
  const auto id = static_cast<PartId>(parts_.size());
  parts_.push_back(std::move(result));
  by_content_.emplace(hash, id);
  return id;
}

CandidateOutcome PartitionChecker::CheckOcdAndOds(ListId x, ListId y,
                                                 CheckSlot* slot) const {
  CandidateOutcome out;
  const PartId ix = lists_.part(x);
  const PartId iy = lists_.part(y);
  if (ix != kNoPartId && iy != kNoPartId) {
    // One row pass fills both directions' extremes: the swap bit answers
    // the OCD single check, the full outcomes both embedded ODs.
    OdCheckOutcome xy;
    OdCheckOutcome yx;
    if (slot != nullptr) {
      const PartId lo = std::min(ix, iy);
      const PartId hi = std::max(ix, iy);
      std::call_once(slot->once, [&] {
        ListPartition::CheckOdBoth(parts_[lo], parts_[hi], &slot->both[0],
                                   &slot->both[1]);
      });
      const bool x_is_lo = ix == lo;
      xy = slot->both[x_is_lo ? 0 : 1];
      yx = slot->both[x_is_lo ? 1 : 0];
    } else {
      ListPartition::CheckOdBoth(parts_[ix], parts_[iy], &xy, &yx);
    }
    out.ocd_valid = !xy.has_swap;
    if (out.ocd_valid) {
      out.od_xy = xy.valid();
      out.od_yx = yx.valid();
    }
  } else {
    const AttributeList& lx = lists_.list(x);
    const AttributeList& ly = lists_.list(y);
    out.ocd_valid = sorter_.HoldsOcd(lx, ly);
    if (out.ocd_valid) {
      out.od_xy = sorter_.HoldsOd(lx, ly);
      out.od_yx = sorter_.HoldsOd(ly, lx);
    }
  }
  ctx_.CountCheck(out.ocd_valid ? 3 : 1);
  return out;
}

OdCheckOutcome PartitionChecker::CheckOd(ListId lhs, ListId rhs) const {
  const PartId il = lists_.part(lhs);
  const PartId ir = lists_.part(rhs);
  ctx_.CountCheck(1);
  if (il == kNoPartId || ir == kNoPartId) {
    return sorter_.CheckOd(lists_.list(lhs), lists_.list(rhs),
                           /*early_exit=*/false);
  }
  return ListPartition::CheckOd(parts_[il], parts_[ir]);
}

}  // namespace ocdd::core
