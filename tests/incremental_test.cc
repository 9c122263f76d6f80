#include "algo/incremental/incremental.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "common/run_context.h"
#include "datagen/fixtures.h"
#include "datagen/registry.h"
#include "relation/batch.h"
#include "relation/relation.h"
#include "relation/value.h"
#include "test_util.h"

namespace ocdd {
namespace {

namespace fs = std::filesystem;
using algo::BatchApplyStats;
using algo::DiscoverFromScratch;
using algo::IncrementalOptions;
using algo::IncrementalSession;

/// Fresh scratch directory per test; removed on destruction.
struct ScratchDir {
  explicit ScratchDir(const std::string& tag) {
    path = (fs::temp_directory_path() /
            ("ocdd_incr_test_" + tag + "_" + std::to_string(::getpid())))
               .string();
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

rel::Relation BaseRelation(std::size_t rows = 60) {
  auto relation = datagen::MakeDataset("LINEITEM", rows, 7);
  EXPECT_TRUE(relation.ok()) << relation.status().message();
  return std::move(relation).value();
}

/// A synthetic append row for `relation`'s schema: with probability ~1/3
/// copies cells from an existing row (duplicates), otherwise draws fresh
/// values; sprinkles NULLs when `with_nulls`.
std::vector<rel::Value> RandomRow(const rel::Relation& relation,
                                  std::mt19937& rng, bool with_nulls) {
  std::vector<rel::Value> row;
  std::uniform_int_distribution<std::size_t> pick_row(
      0, relation.num_rows() == 0 ? 0 : relation.num_rows() - 1);
  bool copy = relation.num_rows() > 0 && rng() % 3 == 0;
  std::size_t src = relation.num_rows() > 0 ? pick_row(rng) : 0;
  for (std::size_t c = 0; c < relation.num_columns(); ++c) {
    if (with_nulls && rng() % 7 == 0) {
      row.push_back(rel::Value::Null());
      continue;
    }
    if (copy) {
      row.push_back(relation.column(c).ValueAt(src));
      continue;
    }
    switch (relation.schema().attribute(c).type) {
      case rel::DataType::kInt:
        row.push_back(rel::Value::Int(static_cast<std::int64_t>(rng() % 50)));
        break;
      case rel::DataType::kDouble:
        row.push_back(rel::Value::Double((rng() % 1000) / 8.0));
        break;
      case rel::DataType::kString: {
        std::string s("s");
        s += std::to_string(rng() % 30);
        row.push_back(rel::Value::String(std::move(s)));
        break;
      }
    }
  }
  return row;
}

rel::RowBatch RandomBatch(const rel::Relation& relation, std::mt19937& rng,
                          std::size_t max_deletes, std::size_t max_appends,
                          bool with_nulls = false) {
  rel::RowBatch batch;
  if (max_deletes > 0 && relation.num_rows() > 0) {
    std::size_t want = rng() % (max_deletes + 1);
    std::vector<std::size_t> all(relation.num_rows());
    std::iota(all.begin(), all.end(), 0u);
    std::shuffle(all.begin(), all.end(), rng);
    want = std::min(want, all.size());
    batch.deletes.assign(all.begin(), all.begin() + want);
    std::sort(batch.deletes.begin(), batch.deletes.end());
  }
  std::size_t appends = max_appends == 0 ? 0 : rng() % (max_appends + 1);
  for (std::size_t i = 0; i < appends; ++i) {
    batch.appends.push_back(RandomRow(relation, rng, with_nulls));
  }
  return batch;
}

/// The contract under test: after a batch, the session's claims and column
/// reduction must be identical to a from-scratch walk over the materialized
/// relation.
void ExpectEquivalent(const IncrementalSession& session,
                      const IncrementalOptions& options) {
  core::OcdDiscoverResult oracle =
      DiscoverFromScratch(session.relation(), options);
  ASSERT_TRUE(oracle.completed);
  const core::OcdDiscoverResult& last = session.last_result();
  EXPECT_EQ(last.ods, oracle.ods);
  EXPECT_EQ(last.ocds, oracle.ocds);
  EXPECT_EQ(last.candidates_generated, oracle.candidates_generated);
  EXPECT_EQ(last.reduction.reduced_universe,
            oracle.reduction.reduced_universe);
  EXPECT_EQ(last.reduction.constant_columns,
            oracle.reduction.constant_columns);
  EXPECT_EQ(last.reduction.equivalence_classes,
            oracle.reduction.equivalence_classes);
}

// ---------------------------------------------------------------------------
// Equivalence across batch classes
// ---------------------------------------------------------------------------

TEST(IncrementalTest, StartMatchesFromScratch) {
  IncrementalOptions options;
  auto session = IncrementalSession::Start(BaseRelation(), options);
  ASSERT_TRUE(session.ok()) << session.status().message();
  ExpectEquivalent(*session, options);
  EXPECT_EQ(session->batch_seq(), 0u);
}

TEST(IncrementalTest, AppendOnlyBatchesStayEquivalent) {
  IncrementalOptions options;
  auto session = IncrementalSession::Start(BaseRelation(), options);
  ASSERT_TRUE(session.ok());
  std::mt19937 rng(11);
  for (int i = 0; i < 5; ++i) {
    rel::RowBatch batch = RandomBatch(session->relation(), rng, 0, 8);
    auto stats = session->ApplyBatch(batch);
    ASSERT_TRUE(stats.ok()) << stats.status().message();
    ASSERT_TRUE(stats->result.completed);
    ExpectEquivalent(*session, options);
  }

  // Single appends that break structure: a constant column, an equivalence
  // class, an emitted OD, and an OCD with no OD at stake.
  using Claims = core::OcdDiscoverResult;
  const struct {
    const char* what;
    rel::Relation base;
    std::vector<rel::Value> row;
    std::function<bool(const Claims&, const Claims&)> broke;
  } kBreaks[] = {
      {"constant", testutil::IntTable({{7, 7, 7}, {1, 2, 3}}),
       {rel::Value::Int(8), rel::Value::Int(4)},
       [](const Claims& before, const Claims& after) {
         return before.reduction.constant_columns.size() == 1 &&
                after.reduction.constant_columns.empty();
       }},
      {"equivalence", testutil::IntTable({{1, 2, 3}, {10, 20, 30}, {5, 5, 7}}),
       {rel::Value::Int(4), rel::Value::Int(1), rel::Value::Int(9)},
       [](const Claims& before, const Claims& after) {
         return before.reduction.equivalence_classes.size() == 1 &&
                after.reduction.equivalence_classes.empty();
       }},
      {"od", datagen::MakeTaxInfo(),  // income -> bracket
       {rel::Value::String("Z. Test"), rel::Value::Int(90000),
        rel::Value::Int(11000), rel::Value::Int(1), rel::Value::Int(15000)},
       [](const Claims& before, const Claims& after) {
         return std::any_of(before.ods.begin(), before.ods.end(),
                            [&](const od::OrderDependency& od) {
                              return std::find(after.ods.begin(),
                                               after.ods.end(),
                                               od) == after.ods.end();
                            });
       }},
      {"ocd", datagen::MakeYes(),  // A ~ B holds, no OD does
       {rel::Value::Int(10), rel::Value::Int(0)},
       [](const Claims& before, const Claims& after) {
         return before.ocds.size() == 1 && after.ocds.empty();
       }},
  };
  for (const auto& brk : kBreaks) {
    SCOPED_TRACE(brk.what);
    auto small = IncrementalSession::Start(brk.base, options);
    ASSERT_TRUE(small.ok());
    const Claims before = small->last_result();
    rel::RowBatch batch;
    batch.appends.push_back(brk.row);
    ASSERT_TRUE(small->ApplyBatch(batch).ok());
    EXPECT_TRUE(brk.broke(before, small->last_result()));
    ExpectEquivalent(*small, options);
  }
}

TEST(IncrementalTest, DeleteOnlyBatchesStayEquivalent) {
  IncrementalOptions options;
  auto session = IncrementalSession::Start(BaseRelation(80), options);
  ASSERT_TRUE(session.ok());
  std::mt19937 rng(12);
  for (int i = 0; i < 5 && session->relation().num_rows() > 10; ++i) {
    rel::RowBatch batch = RandomBatch(session->relation(), rng, 10, 0);
    auto stats = session->ApplyBatch(batch);
    ASSERT_TRUE(stats.ok()) << stats.status().message();
    ExpectEquivalent(*session, options);
  }
}

TEST(IncrementalTest, MixedBatchesStayEquivalent) {
  IncrementalOptions options;
  auto session = IncrementalSession::Start(BaseRelation(), options);
  ASSERT_TRUE(session.ok());
  std::mt19937 rng(13);
  for (int i = 0; i < 6; ++i) {
    rel::RowBatch batch = RandomBatch(session->relation(), rng, 6, 6,
                                      /*with_nulls=*/true);
    auto stats = session->ApplyBatch(batch);
    ASSERT_TRUE(stats.ok()) << stats.status().message();
    ExpectEquivalent(*session, options);
  }
}

TEST(IncrementalTest, EmptyBatchKeepsTheClaims) {
  IncrementalOptions options;
  auto session = IncrementalSession::Start(BaseRelation(), options);
  ASSERT_TRUE(session.ok());
  auto before = session->last_result();
  auto stats = session->ApplyBatch(rel::RowBatch{});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->batch_seq, 1u);
  EXPECT_EQ(stats->result.ods, before.ods);
  EXPECT_EQ(stats->result.ocds, before.ocds);
  EXPECT_EQ(stats->result.num_checks, before.num_checks);
}

TEST(IncrementalTest, DuplicateRowAppendsStayEquivalent) {
  IncrementalOptions options;
  auto session = IncrementalSession::Start(BaseRelation(), options);
  ASSERT_TRUE(session.ok());
  // Append exact copies of existing rows — pure splits, no new orderings.
  rel::RowBatch batch;
  for (std::size_t r = 0; r < 4; ++r) {
    std::vector<rel::Value> row;
    for (std::size_t c = 0; c < session->relation().num_columns(); ++c) {
      row.push_back(session->relation().column(c).ValueAt(r));
    }
    batch.appends.push_back(std::move(row));
  }
  auto stats = session->ApplyBatch(batch);
  ASSERT_TRUE(stats.ok());
  ExpectEquivalent(*session, options);
}

TEST(IncrementalTest, NullBearingAppendsStayEquivalent) {
  IncrementalOptions options;
  auto session = IncrementalSession::Start(BaseRelation(), options);
  ASSERT_TRUE(session.ok());
  rel::RowBatch batch;
  // An all-NULL row sorts before everything under every list.
  batch.appends.emplace_back(session->relation().num_columns(),
                             rel::Value::Null());
  std::mt19937 rng(14);
  batch.appends.push_back(RandomRow(session->relation(), rng, true));
  auto stats = session->ApplyBatch(batch);
  ASSERT_TRUE(stats.ok());
  ExpectEquivalent(*session, options);
}

TEST(IncrementalTest, DeleteEverythingThenRepopulate) {
  IncrementalOptions options;
  auto session = IncrementalSession::Start(BaseRelation(20), options);
  ASSERT_TRUE(session.ok());
  rel::RowBatch wipe;
  wipe.deletes.resize(session->relation().num_rows());
  std::iota(wipe.deletes.begin(), wipe.deletes.end(), 0u);
  ASSERT_TRUE(session->ApplyBatch(wipe).ok());
  EXPECT_EQ(session->relation().num_rows(), 0u);
  ExpectEquivalent(*session, options);

  std::mt19937 rng(15);
  rel::RowBatch refill = RandomBatch(session->relation(), rng, 0, 12, true);
  ASSERT_TRUE(session->ApplyBatch(refill).ok());
  ExpectEquivalent(*session, options);
}

// ---------------------------------------------------------------------------
// Budgets and degraded modes
// ---------------------------------------------------------------------------

TEST(IncrementalTest, ValidationErrorLeavesSessionUnchanged) {
  IncrementalOptions options;
  auto session = IncrementalSession::Start(BaseRelation(), options);
  ASSERT_TRUE(session.ok());
  std::size_t rows = session->relation().num_rows();

  rel::RowBatch bad;
  bad.deletes.push_back(rows + 5);  // out of range
  auto stats = session->ApplyBatch(bad);
  EXPECT_FALSE(stats.ok());
  EXPECT_EQ(session->batch_seq(), 0u);
  EXPECT_EQ(session->relation().num_rows(), rows);

  rel::RowBatch mistyped;
  mistyped.appends.emplace_back(session->relation().num_columns(),
                                rel::Value::String("not-an-int-anywhere"));
  EXPECT_FALSE(session->ApplyBatch(mistyped).ok());
  EXPECT_EQ(session->batch_seq(), 0u);

  rel::RowBatch short_row;
  short_row.appends.push_back({rel::Value::Int(4)});
  EXPECT_FALSE(session->ApplyBatch(short_row).ok());
  EXPECT_EQ(session->batch_seq(), 0u);

  // The session still works after rejected batches.
  std::mt19937 rng(16);
  auto good = session->ApplyBatch(RandomBatch(session->relation(), rng, 3, 3));
  ASSERT_TRUE(good.ok());
  ExpectEquivalent(*session, options);
}

TEST(IncrementalTest, CheckBudgetStopCommitsSoundPartialState) {
  IncrementalOptions options;
  auto session = IncrementalSession::Start(BaseRelation(), options);
  ASSERT_TRUE(session.ok());
  std::mt19937 rng(17);

  RunContext ctx;
  ctx.set_check_budget(3);
  rel::RowBatch batch = RandomBatch(session->relation(), rng, 4, 4);
  auto stopped = session->ApplyBatch(batch, &ctx);
  ASSERT_TRUE(stopped.ok());
  EXPECT_FALSE(stopped->result.completed);
  EXPECT_EQ(stopped->result.stop_reason, StopReason::kCheckBudget);

  // The partial warm state must still be sound: an unlimited follow-up
  // batch lands exactly on the from-scratch result.
  auto resumed = session->ApplyBatch(rel::RowBatch{});
  ASSERT_TRUE(resumed.ok());
  ASSERT_TRUE(resumed->result.completed);
  ExpectEquivalent(*session, options);
}

// ---------------------------------------------------------------------------
// Warm-state persistence
// ---------------------------------------------------------------------------

IncrementalOptions DiskOptions(const std::string& dir) {
  IncrementalOptions options;
  options.state_dir = dir;
  return options;
}

std::function<Result<rel::Relation>()> FailingLoader() {
  return [] { return Result<rel::Relation>(Status::NotFound("no base")); };
}

TEST(IncrementalTest, OpenRestoresWarmState) {
  ScratchDir dir("restore");
  IncrementalOptions options = DiskOptions(dir.path);
  std::mt19937 rng(19);
  std::uint64_t seq = 0;
  core::OcdDiscoverResult last;
  std::size_t rows = 0;
  {
    auto session = IncrementalSession::Start(BaseRelation(), options);
    ASSERT_TRUE(session.ok());
    for (int i = 0; i < 2; ++i) {
      auto stats =
          session->ApplyBatch(RandomBatch(session->relation(), rng, 4, 4));
      ASSERT_TRUE(stats.ok());
      EXPECT_TRUE(stats->snapshot_written);
    }
    seq = session->batch_seq();
    last = session->last_result();
    rows = session->relation().num_rows();
  }

  // The loader must not be consulted when warm state is usable.
  auto reopened = IncrementalSession::Open(options, FailingLoader());
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_TRUE(reopened->resumed());
  EXPECT_TRUE(reopened->open_warning().empty());
  EXPECT_EQ(reopened->batch_seq(), seq);
  EXPECT_EQ(reopened->relation().num_rows(), rows);
  EXPECT_EQ(reopened->last_result().ods, last.ods);
  EXPECT_EQ(reopened->last_result().ocds, last.ocds);

  // And the restored session keeps the equivalence contract.
  auto stats =
      reopened->ApplyBatch(RandomBatch(reopened->relation(), rng, 4, 4, true));
  ASSERT_TRUE(stats.ok());
  ExpectEquivalent(*reopened, options);
}

/// A warm state keeps why its walk stopped: a capped session reopens with
/// the same stop reason and stop state.
TEST(IncrementalTest, OpenRestoresTheStop) {
  ScratchDir dir("stop");
  IncrementalOptions options = DiskOptions(dir.path);
  options.max_level = 2;
  core::OcdDiscoverResult last;
  {
    auto session = IncrementalSession::Start(BaseRelation(), options);
    ASSERT_TRUE(session.ok());
    last = session->last_result();
  }
  ASSERT_EQ(last.stop_reason, StopReason::kLevelCap);
  auto reopened = IncrementalSession::Open(options, FailingLoader());
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  ASSERT_TRUE(reopened->resumed());
  const core::OcdDiscoverResult& again = reopened->last_result();
  EXPECT_FALSE(again.completed);
  EXPECT_EQ(again.stop_reason, StopReason::kLevelCap);
  EXPECT_EQ(again.stop_state.checks, last.stop_state.checks);
  EXPECT_EQ(again.stop_state.level, last.stop_state.level);
  EXPECT_EQ(again.stop_state.frontier_size, last.stop_state.frontier_size);
}

TEST(IncrementalTest, OpenRestoresTheColumnReduction) {
  ScratchDir dir("reduction");
  IncrementalOptions options = DiskOptions(dir.path);
  // Column 0 is constant; columns 1 and 2 are order-equivalent.
  const rel::Relation base = testutil::IntTable(
      {{7, 7, 7, 7}, {1, 2, 3, 4}, {10, 20, 30, 40}, {4, 1, 3, 2}});
  {
    auto session = IncrementalSession::Start(base, options);
    ASSERT_TRUE(session.ok());
    EXPECT_EQ(session->last_result().reduction.constant_columns.size(), 1u);
    EXPECT_EQ(session->last_result().reduction.equivalence_classes.size(),
              1u);
  }
  auto reopened = IncrementalSession::Open(options, FailingLoader());
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_TRUE(reopened->resumed());
  ExpectEquivalent(*reopened, options);
}

/// A warm state in the format sessions wrote while they kept per-candidate
/// outcomes: an `outcomes` section and two more `stats` counters. The
/// fixture is the generation written by `ocdd apply-batch b.batch --state
/// DIR` after bootstrapping DIR with `--base` from a 12-row CSV (a = r,
/// b = 7r mod 5, c = 1, d = 10r, e = r div 3), b.batch holding
/// `- 3`, `- 7`, `+ 100,0,1,1000,40` and `+ 5,2,1,50,1`.
TEST(IncrementalTest, OpensAWarmStateWithAnOutcomesSection) {
  ScratchDir dir("outcomes");
  fs::create_directories(dir.path);
  fs::copy_file(std::string(OCDD_TEST_SRC_DIR) +
                    "/fixtures/incremental_v1_csv12.snap",
                dir.path + "/incremental.000002.snap");
  IncrementalOptions options = DiskOptions(dir.path);
  auto session = IncrementalSession::Open(options, FailingLoader());
  ASSERT_TRUE(session.ok()) << session.status().message();
  EXPECT_TRUE(session->resumed());
  EXPECT_EQ(session->batch_seq(), 1u);
  EXPECT_EQ(session->relation().num_rows(), 12u);
  EXPECT_EQ(session->last_result().reduction.constant_columns.size(), 1u);
  ExpectEquivalent(*session, options);

  rel::RowBatch batch;
  batch.deletes.push_back(0);
  batch.appends.push_back({rel::Value::Int(6), rel::Value::Int(1),
                           rel::Value::Int(1), rel::Value::Int(60),
                           rel::Value::Int(2)});
  auto stats = session->ApplyBatch(batch);
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  EXPECT_EQ(stats->batch_seq, 2u);
  EXPECT_TRUE(stats->snapshot_written);
  ExpectEquivalent(*session, options);
}

TEST(IncrementalTest, TornNewestGenerationFallsBackToPrevious) {
  ScratchDir dir("torn");
  IncrementalOptions options = DiskOptions(dir.path);
  std::mt19937 rng(20);
  {
    auto session = IncrementalSession::Start(BaseRelation(), options);
    ASSERT_TRUE(session.ok());
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(
          session->ApplyBatch(RandomBatch(session->relation(), rng, 3, 3))
              .ok());
    }
  }
  // Truncate the newest generation to simulate a torn write at the crash.
  fs::path newest;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    if (newest.empty() || entry.path().filename() > newest.filename()) {
      newest = entry.path();
    }
  }
  ASSERT_FALSE(newest.empty());
  fs::resize_file(newest, fs::file_size(newest) / 2);

  auto reopened = IncrementalSession::Open(options, FailingLoader());
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_TRUE(reopened->resumed());
  // The previous batch boundary was restored; the caller sees the sequence
  // regression and replays the lost batch.
  EXPECT_EQ(reopened->batch_seq(), 1u);
  EXPECT_FALSE(reopened->open_warning().empty());
  ExpectEquivalent(*reopened, options);
}

TEST(IncrementalTest, FullyCorruptStateDegradesToFromScratch) {
  ScratchDir dir("corrupt");
  IncrementalOptions options = DiskOptions(dir.path);
  std::mt19937 rng(21);
  {
    auto session = IncrementalSession::Start(BaseRelation(), options);
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE(
        session->ApplyBatch(RandomBatch(session->relation(), rng, 3, 3)).ok());
  }
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    std::ofstream out(entry.path(), std::ios::trunc | std::ios::binary);
    out << "garbage, not a snapshot";
  }

  auto reopened = IncrementalSession::Open(
      options, [] { return Result<rel::Relation>(BaseRelation()); });
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_FALSE(reopened->resumed());
  EXPECT_FALSE(reopened->open_warning().empty());
  EXPECT_EQ(reopened->batch_seq(), 0u);
  ExpectEquivalent(*reopened, options);
}

TEST(IncrementalTest, NoStateAndNoLoaderIsNotFound) {
  ScratchDir dir("nostate");
  auto session = IncrementalSession::Open(DiskOptions(dir.path), nullptr);
  EXPECT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kNotFound);
}

TEST(IncrementalTest, LargeDeleteBatchStaysEquivalent) {
  // One batch deleting most of the relation, then a mixed follow-up on the
  // survivors: both must land on the from-scratch result.
  IncrementalOptions options;
  auto session = IncrementalSession::Start(BaseRelation(90), options);
  ASSERT_TRUE(session.ok()) << session.status().message();

  rel::RowBatch shed;
  for (std::size_t r = 0; r < session->relation().num_rows(); r += 3) {
    shed.deletes.push_back(r);
    if (r + 1 < session->relation().num_rows()) shed.deletes.push_back(r + 1);
  }
  auto stats = session->ApplyBatch(shed);
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  EXPECT_EQ(session->relation().num_rows(), 30u);
  ExpectEquivalent(*session, options);

  std::mt19937 rng(99);
  rel::RowBatch follow = RandomBatch(session->relation(), rng, 5, 8);
  auto follow_stats = session->ApplyBatch(follow);
  ASSERT_TRUE(follow_stats.ok()) << follow_stats.status().message();
  ExpectEquivalent(*session, options);
}

}  // namespace
}  // namespace ocdd
