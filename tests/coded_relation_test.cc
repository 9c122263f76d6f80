#include "relation/coded_relation.h"

#include <gtest/gtest.h>

#include <cmath>

#include "relation/csv.h"
#include "test_util.h"

namespace ocdd::rel {
namespace {

TEST(CodedRelationTest, CodesAreOrderPreservingDenseRanks) {
  CodedRelation r = testutil::CodedIntTable({{30, 10, 20, 10}});
  const CodedColumn& c = r.column(0);
  EXPECT_EQ(c.codes, (std::vector<std::int32_t>{2, 0, 1, 0}));
  EXPECT_EQ(c.num_distinct, 3);
  EXPECT_FALSE(c.has_nulls);
}

TEST(CodedRelationTest, NullsShareSmallestCode) {
  Relation::Builder b(Schema({Attribute{"a", DataType::kInt}}));
  ASSERT_TRUE(b.AddRow({Value::Int(5)}).ok());
  ASSERT_TRUE(b.AddRow({Value::Null()}).ok());
  ASSERT_TRUE(b.AddRow({Value::Null()}).ok());
  ASSERT_TRUE(b.AddRow({Value::Int(-1)}).ok());
  CodedRelation r = CodedRelation::Encode(std::move(b).Build());
  const CodedColumn& c = r.column(0);
  EXPECT_EQ(c.codes, (std::vector<std::int32_t>{2, 0, 0, 1}));
  EXPECT_TRUE(c.has_nulls);
  EXPECT_EQ(c.num_distinct, 3);
}

TEST(CodedRelationTest, StringColumnRanksLexicographically) {
  auto rel = ReadCsvString("s\nbanana\napple\ncherry\n");
  ASSERT_TRUE(rel.ok());
  CodedRelation r = CodedRelation::Encode(*rel);
  EXPECT_EQ(r.column(0).codes, (std::vector<std::int32_t>{1, 0, 2}));
}

TEST(CodedRelationTest, ForceLexicographicChangesNumericOrder) {
  // Naturally 9 < 10; lexicographically "10" < "9".
  Relation table = testutil::IntTable({{10, 9}});
  CodedRelation natural = CodedRelation::Encode(table);
  EXPECT_EQ(natural.column(0).codes, (std::vector<std::int32_t>{1, 0}));

  EncodeOptions opts;
  opts.force_lexicographic = true;
  CodedRelation lex = CodedRelation::Encode(table, opts);
  EXPECT_EQ(lex.column(0).codes, (std::vector<std::int32_t>{0, 1}));
}

TEST(CodedRelationTest, ConstantColumnDetection) {
  CodedRelation r = testutil::CodedIntTable({{7, 7, 7}, {1, 2, 1}});
  EXPECT_TRUE(r.column(0).is_constant());
  EXPECT_FALSE(r.column(1).is_constant());
}

TEST(CodedRelationTest, EntropyConstantIsZero) {
  CodedRelation r = testutil::CodedIntTable({{4, 4, 4, 4}});
  EXPECT_DOUBLE_EQ(r.ColumnEntropy(0), 0.0);
}

TEST(CodedRelationTest, EntropyAllDistinctIsLogM) {
  CodedRelation r = testutil::CodedIntTable({{1, 2, 3, 4, 5, 6, 7, 8}});
  EXPECT_NEAR(r.ColumnEntropy(0), std::log(8.0), 1e-12);
}

TEST(CodedRelationTest, EntropyUniformTwoValues) {
  CodedRelation r = testutil::CodedIntTable({{0, 0, 1, 1}});
  EXPECT_NEAR(r.ColumnEntropy(0), std::log(2.0), 1e-12);
}

TEST(CodedRelationTest, ProjectColumns) {
  CodedRelation r = testutil::CodedIntTable({{1, 2}, {3, 4}, {5, 6}});
  CodedRelation p = r.ProjectColumns({2, 0});
  EXPECT_EQ(p.num_columns(), 2u);
  EXPECT_EQ(p.column_name(0), "C");
  EXPECT_EQ(p.column_name(1), "A");
  EXPECT_EQ(p.code(1, 0), r.code(1, 2));
}

TEST(CodedRelationTest, HeadRowsRecomputesDistinct) {
  CodedRelation r = testutil::CodedIntTable({{1, 1, 2, 3}});
  CodedRelation h = r.HeadRows(2);
  EXPECT_EQ(h.num_rows(), 2u);
  EXPECT_EQ(h.column(0).num_distinct, 1);
  EXPECT_TRUE(h.column(0).is_constant());
}

TEST(CodedRelationTest, FromColumnsRoundTrip) {
  CodedColumn c;
  c.name = "x";
  c.codes = {0, 1, 1};
  c.num_distinct = 2;
  CodedRelation r = CodedRelation::FromColumns({c});
  EXPECT_EQ(r.num_rows(), 3u);
  EXPECT_EQ(r.code(2, 0), 1);
}

TEST(CodedRelationTest, NarrowMirrorsTrackCanonicalCodes) {
  // d <= 256: codes8 is the populated mirror, codes16 stays empty.
  CodedRelation small = testutil::CodedIntTable({{30, 10, 20, 10}});
  const CodedColumn& c = small.column(0);
  EXPECT_EQ(c.narrow_width(), CodeWidth::k8);
  ASSERT_EQ(c.codes8.size(), c.codes.size());
  EXPECT_TRUE(c.codes16.empty());
  for (std::size_t i = 0; i < c.codes.size(); ++i) {
    EXPECT_EQ(static_cast<std::int32_t>(c.codes8[i]), c.codes[i]);
  }
  CodeView v = NarrowView(c);
  EXPECT_EQ(v.width, CodeWidth::k8);
  for (std::size_t i = 0; i < c.codes.size(); ++i) {
    EXPECT_EQ(v.At(i), c.codes[i]);
  }

  // 256 < d <= 65536: codes16 carries the mirror.
  std::vector<std::int32_t> wide(300);
  CodedColumn raw;
  raw.name = "w";
  for (std::size_t i = 0; i < wide.size(); ++i) {
    raw.codes.push_back(static_cast<std::int32_t>(i));
  }
  raw.num_distinct = static_cast<std::int32_t>(raw.codes.size());
  CodedRelation mid = CodedRelation::FromColumns({raw});
  const CodedColumn& m = mid.column(0);
  EXPECT_EQ(m.narrow_width(), CodeWidth::k16);
  EXPECT_TRUE(m.codes8.empty());
  ASSERT_EQ(m.codes16.size(), m.codes.size());
  EXPECT_EQ(static_cast<std::int32_t>(m.codes16[299]), 299);
}

TEST(CodedRelationTest, FromColumnsRebuildsMirrorsAfterHandMutation) {
  // A column whose codes were edited by hand (stale codes8) must come out
  // of FromColumns with consistent mirrors again.
  CodedColumn c;
  c.name = "x";
  c.codes = {0, 1, 2};
  c.num_distinct = 3;
  c.codes8 = {9, 9, 9};  // deliberately wrong
  CodedRelation r = CodedRelation::FromColumns({c});
  ASSERT_EQ(r.column(0).codes8.size(), 3u);
  EXPECT_EQ(r.column(0).codes8, (std::vector<std::uint8_t>{0, 1, 2}));
}

TEST(CodedRelationTest, HeadRowsRebuildsMirrors) {
  CodedRelation r = testutil::CodedIntTable({{5, 5, 7, 9}});
  CodedRelation h = r.HeadRows(2);
  const CodedColumn& c = h.column(0);
  EXPECT_EQ(c.num_distinct, 1);
  ASSERT_EQ(c.codes8.size(), 2u);
  EXPECT_EQ(c.codes8, (std::vector<std::uint8_t>{0, 0}));
}

TEST(CodedRelationTest, MixedDoubleIntColumnOrdering) {
  Relation::Builder b(Schema({Attribute{"d", DataType::kDouble}}));
  ASSERT_TRUE(b.AddRow({Value::Double(1.5)}).ok());
  ASSERT_TRUE(b.AddRow({Value::Int(1)}).ok());
  ASSERT_TRUE(b.AddRow({Value::Double(2.0)}).ok());
  CodedRelation r = CodedRelation::Encode(std::move(b).Build());
  EXPECT_EQ(r.column(0).codes, (std::vector<std::int32_t>{1, 0, 2}));
}

}  // namespace
}  // namespace ocdd::rel
