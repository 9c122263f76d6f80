// The list table (core/list_table.h): every attribute list of a walk is
// interned once under a dense id, ids are prefix-closed and independent of
// the thread count, and a refused charge ends the walk on the memory
// budget.

#include "core/list_table.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "algo/order/order_discover.h"
#include "common/thread_pool.h"
#include "core/ocd_discover.h"
#include "core/partition_checker.h"
#include "core/polarized.h"
#include "datagen/registry.h"

namespace ocdd::core {
namespace {

using od::AttributeList;
using rel::CodedRelation;

TEST(ListTableTest, InterningTwiceGivesTheSameId) {
  ListTable table;
  const ListId ab = table.Intern(AttributeList{0, 1});
  const ListId ba = table.Intern(AttributeList{1, 0});
  ASSERT_NE(ab, kNoListId);
  EXPECT_NE(ab, ba);
  const std::size_t size = table.size();
  EXPECT_EQ(table.Intern(AttributeList{0, 1}), ab);
  EXPECT_EQ(table.Child(table.Intern(AttributeList{0}), 1), ab);
  EXPECT_EQ(table.Intern(AttributeList{1, 0}), ba);
  EXPECT_EQ(table.size(), size);  // nothing new was interned
  EXPECT_EQ(table.list(ab), (AttributeList{0, 1}));
  EXPECT_EQ(table.Intern(AttributeList{}), kNoListId);
}

TEST(ListTableTest, ChildAndParentIdsArePrefixClosed) {
  ListTable table;
  const AttributeList list{4, 2, 7, 1};
  const ListId id = table.Intern(list);
  ASSERT_NE(id, kNoListId);
  EXPECT_EQ(table.size(), list.size());
  // Every prefix is interned, and walking parent ids visits them in turn.
  ListId at = id;
  for (std::size_t k = list.size(); k >= 1; --k) {
    AttributeList prefix(std::vector<rel::ColumnId>(
        list.ids().begin(), list.ids().begin() + static_cast<long>(k)));
    EXPECT_EQ(table.Intern(prefix), at) << prefix.ToString();
    EXPECT_EQ(table.list(at), prefix);
    EXPECT_EQ(table.length(at), k);
    EXPECT_EQ(table.last(at), list[k - 1]);
    EXPECT_EQ(table.part(at), kNoPartId);
    at = table.parent(at);
  }
  EXPECT_EQ(at, kNoListId);
  EXPECT_EQ(table.size(), list.size());
  // A child of any prefix has that prefix as its parent.
  const ListId prefix = table.Intern(AttributeList{4, 2});
  const ListId child = table.Child(prefix, 9);
  EXPECT_EQ(table.parent(child), prefix);
  EXPECT_EQ(table.list(child), (AttributeList{4, 2, 9}));
}

TEST(ListTableTest, LexRanksOrderListsAsTheirValues) {
  // Interned out of order, so neither ids nor the interning order are the
  // lexicographic order.
  ListTable table;
  for (const AttributeList& list :
       {AttributeList{3, 1}, AttributeList{2, 0, 1}, AttributeList{0},
        AttributeList{0, 2}, AttributeList{2, 0, 3}, AttributeList{1},
        AttributeList{3, 1, 0}, AttributeList{2, 3}}) {
    ASSERT_NE(table.Intern(list), kNoListId);
  }
  // Column c ordered as 3 - c: the order of the lists with mirrored ids.
  const std::vector<std::uint32_t> reversed = {3, 2, 1, 0};
  auto mirrored = [&](ListId id) {
    std::vector<rel::ColumnId> ids = table.list(id).ids();
    for (rel::ColumnId& c : ids) c = 3 - c;
    return AttributeList(std::move(ids));
  };
  const std::vector<std::uint32_t> rank = table.LexRanks();
  const std::vector<std::uint32_t> by_reversed = table.LexRanks(reversed);
  ASSERT_EQ(rank.size(), table.size());
  for (ListId a = 0; a < table.size(); ++a) {
    for (ListId b = 0; b < table.size(); ++b) {
      SCOPED_TRACE(table.list(a).ToString() + " " + table.list(b).ToString());
      EXPECT_EQ(rank[a] < rank[b], table.list(a) < table.list(b));
      EXPECT_EQ(by_reversed[a] < by_reversed[b], mirrored(a) < mirrored(b));
    }
  }

  // Pairs sort by their lists, each once; symmetric pairs put the lesser
  // list first.
  const ListId a = table.Intern(AttributeList{0});
  const ListId ab = table.Intern(AttributeList{0, 2});
  const ListId d = table.Intern(AttributeList{3, 1});
  const std::vector<Candidate> pairs = {{d, a}, {ab, a}, {a, d}, {d, a}};
  EXPECT_EQ(SortPairs(pairs, rank, false),
            (std::vector<Candidate>{{a, d}, {ab, a}, {d, a}}));
  EXPECT_EQ(SortPairs(pairs, rank, true),
            (std::vector<Candidate>{{a, ab}, {a, d}}));
}

/// A walk's table as (parent, last column, partition id) rows, after three
/// levels of an OCDDISCOVER-style walk checked on `threads` threads.
std::vector<std::tuple<ListId, rel::ColumnId, PartId>> WalkTable(
    const CodedRelation& r, std::size_t threads) {
  RunContext ctx;
  PartitionChecker checker(r, ctx, kDefaultPartitionCacheBytes);
  ListTable& lists = checker.lists();
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  const auto n = static_cast<rel::ColumnId>(r.num_columns());
  Frontier level(lists, ctx);
  for (rel::ColumnId a = 0; a < n; ++a) {
    for (rel::ColumnId b = a + 1; b < n; ++b) {
      EXPECT_TRUE(level.Add(lists.Child(kNoListId, a),
                            lists.Child(kNoListId, b)));
    }
  }
  for (int depth = 0; depth < 3 && !level.empty(); ++depth) {
    const auto slots = checker.Prepare(level.candidates(), pool.get());
    std::vector<CandidateOutcome> out(level.size());
    auto check = [&](std::size_t i) {
      out[i] = checker.CheckOcdAndOds(level[i].x, level[i].y, slots[i]);
    };
    if (pool) {
      EXPECT_TRUE(pool->ParallelFor(level.size(), check).ok());
    } else {
      for (std::size_t i = 0; i < level.size(); ++i) check(i);
    }
    Frontier next(lists, ctx);
    for (std::size_t i = 0; i < level.size(); ++i) {
      if (!out[i].ocd_valid) continue;
      const Candidate c = level[i];
      for (rel::ColumnId a = 0; a < n; ++a) {
        if (lists.list(c.x).Contains(a) || lists.list(c.y).Contains(a)) {
          continue;
        }
        EXPECT_TRUE(next.Add(lists.Child(c.x, a), c.y));
        EXPECT_TRUE(next.Add(c.x, lists.Child(c.y, a)));
      }
    }
    level = std::move(next);
  }
  std::vector<std::tuple<ListId, rel::ColumnId, PartId>> rows;
  for (ListId id = 0; id < lists.size(); ++id) {
    rows.emplace_back(lists.parent(id), lists.last(id), lists.part(id));
  }
  return rows;
}

TEST(ListTableTest, IdsAreIdenticalAtOneAndFourThreads) {
  Result<rel::Relation> lattice = datagen::MakeDataset("LATTICE", 2000, 42);
  ASSERT_TRUE(lattice.ok());
  const CodedRelation r = CodedRelation::Encode(*lattice);
  const auto one = WalkTable(r, 1);
  const auto four = WalkTable(r, 4);
  EXPECT_GT(one.size(), r.num_columns());
  EXPECT_EQ(one, four);
}

TEST(ListTableTest, ChargesEachNewListAndReturnsTheChargeOnce) {
  RunContext ctx;
  {
    ListTable table(&ctx);
    table.Intern(AttributeList{0, 1, 2});
    EXPECT_GT(table.charged_bytes(), 0u);
    EXPECT_EQ(ctx.memory_used(), table.charged_bytes());
    const std::size_t charged = table.charged_bytes();
    table.Intern(AttributeList{0, 1});  // already interned: no charge
    EXPECT_EQ(table.charged_bytes(), charged);
  }
  EXPECT_EQ(ctx.memory_used(), 0u);
}

TEST(ListTableTest, RefusedChargeInternsNothingAndLatchesMemoryBudget) {
  RunContext ctx;
  ListTable table(&ctx);
  const ListId a = table.Intern(AttributeList{0});
  ASSERT_NE(a, kNoListId);
  ctx.set_memory_budget(ctx.memory_used());  // no room for another list
  EXPECT_EQ(table.Child(a, 1), kNoListId);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(ctx.stop_reason(), StopReason::kMemoryBudget);
  EXPECT_EQ(table.Child(kNoListId, 0), a);  // known lists still resolve
}

TEST(ListTableTest, RefusedTableChargeEndsEveryWalkWithMemoryBudget) {
  // The first charge of every walk is its table's, for a level-2 list: a
  // budget below one list's charge refuses it, and the walk ends at once.
  Result<rel::Relation> data = datagen::MakeDataset("NUMBERS", 6, 42);
  ASSERT_TRUE(data.ok());
  const CodedRelation r = CodedRelation::Encode(*data);
  {
    RunContext ctx;
    ctx.set_memory_budget(1);
    OcdDiscoverOptions opts;
    opts.run_context = &ctx;
    const OcdDiscoverResult result = DiscoverOcds(r, opts);
    EXPECT_FALSE(result.completed);
    EXPECT_EQ(result.stop_reason, StopReason::kMemoryBudget);
    EXPECT_EQ(result.num_checks, 0u);
    EXPECT_EQ(ctx.memory_used(), 0u);
  }
  {
    RunContext ctx;
    ctx.set_memory_budget(1);
    algo::OrderDiscoverOptions opts;
    opts.run_context = &ctx;
    const algo::OrderDiscoverResult result =
        algo::DiscoverOrderDependencies(r, opts);
    EXPECT_FALSE(result.completed);
    EXPECT_EQ(result.stop_reason, StopReason::kMemoryBudget);
    EXPECT_EQ(result.num_checks, 0u);
    EXPECT_EQ(ctx.memory_used(), 0u);
  }
  {
    RunContext ctx;
    ctx.set_memory_budget(1);
    PolarizedDiscoverOptions opts;
    opts.run_context = &ctx;
    const PolarizedDiscoverResult result = DiscoverPolarizedOcds(r, opts);
    EXPECT_FALSE(result.completed);
    EXPECT_EQ(ctx.stop_reason(), StopReason::kMemoryBudget);
    EXPECT_EQ(result.num_checks, 0u);
    EXPECT_EQ(ctx.memory_used(), 0u);
  }
}

}  // namespace
}  // namespace ocdd::core
