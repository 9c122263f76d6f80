#include "relation/coded_relation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datagen/random_relation.h"
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

// The encoding as the row-id sort defined it: sort the rows by value (NULL
// = NULL, NULLS FIRST; by rendering under `lexicographic`) and give each run
// of equal values the next code. Encode must agree with it on every input.
CodedColumn ReferenceEncode(const Column& column, bool lexicographic) {
  const std::size_t m = column.size();
  auto compare = [&](std::size_t a, std::size_t b) -> int {
    const bool na = column.is_null(a);
    const bool nb = column.is_null(b);
    if (na || nb) return na == nb ? 0 : (na ? -1 : 1);
    if (lexicographic) {
      return column.ValueAt(a).ToString().compare(column.ValueAt(b).ToString());
    }
    switch (column.type()) {
      case DataType::kInt:
        return (column.int_at(a) > column.int_at(b)) -
               (column.int_at(a) < column.int_at(b));
      case DataType::kDouble:
        return (column.double_at(a) > column.double_at(b)) -
               (column.double_at(a) < column.double_at(b));
      case DataType::kString:
        return column.string_at(a).compare(column.string_at(b));
    }
    return 0;
  };
  std::vector<std::size_t> order(m);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return compare(a, b) < 0;
  });
  CodedColumn out;
  out.codes.resize(m);
  std::int32_t next = -1;
  for (std::size_t i = 0; i < m; ++i) {
    if (i == 0 || compare(order[i - 1], order[i]) != 0) ++next;
    out.codes[order[i]] = next;
    out.has_nulls = out.has_nulls || column.is_null(order[i]);
  }
  out.num_distinct = next + 1;
  return out;
}

/// The random QA relation plus typed variants of its columns: negative
/// ints, doubles with -0.0 next to 0.0, and strings whose lexicographic
/// order differs from the numeric one.
Relation TypedVariants(const Relation& base) {
  std::vector<Attribute> attrs;
  std::vector<Column> columns;
  for (ColumnId c = 0; c < base.num_columns(); ++c) {
    const Column& ints = base.column(c);
    Column negative(DataType::kInt);
    Column doubles(DataType::kDouble);
    Column strings(DataType::kString);
    for (std::size_t r = 0; r < base.num_rows(); ++r) {
      if (ints.is_null(r)) {
        negative.AppendNull();
        doubles.AppendNull();
        strings.AppendNull();
        continue;
      }
      const std::int64_t v = ints.int_at(r);
      negative.AppendInt(v - 5);
      doubles.AppendDouble(v == 0 ? (r % 2 == 0 ? -0.0 : 0.0) : v * 0.5 - 3);
      strings.AppendString(std::to_string(v * 7 % 13));
    }
    for (Column* col : {&negative, &doubles, &strings}) {
      attrs.push_back(Attribute{std::string(1, 'c').append(
                                    std::to_string(attrs.size())),
                                col->type()});
      columns.push_back(std::move(*col));
    }
  }
  return std::move(
             Relation::FromColumns(Schema(std::move(attrs)), std::move(columns)))
      .value();
}

void ExpectMatchesReference(const Relation& relation) {
  for (bool lex : {false, true}) {
    EncodeOptions opts;
    opts.force_lexicographic = lex;
    CodedRelation coded = CodedRelation::Encode(relation, opts);
    ASSERT_EQ(coded.num_columns(), relation.num_columns());
    for (ColumnId c = 0; c < relation.num_columns(); ++c) {
      SCOPED_TRACE("column " + std::to_string(c) + " lex " +
                   std::to_string(lex));
      CodedColumn expected = ReferenceEncode(relation.column(c), lex);
      EXPECT_EQ(coded.column(c).codes, expected.codes);
      EXPECT_EQ(coded.column(c).num_distinct, expected.num_distinct);
      EXPECT_EQ(coded.column(c).has_nulls, expected.has_nulls);
    }
  }
}

TEST(CodedRelationTest, EncodeMatchesRowSortReferenceOnRandomRelations) {
  Rng rng(20240611);
  datagen::RandomRelationSpec spec;
  spec.max_rows = 60;
  spec.null_column_prob = 0.5;
  for (int iter = 0; iter < 200; ++iter) {
    SCOPED_TRACE("iter " + std::to_string(iter));
    Relation base = datagen::MakeRandomRelation(rng, spec);
    ExpectMatchesReference(base);
    ExpectMatchesReference(TypedVariants(base));
  }
}

TEST(CodedRelationTest, EncodeMatchesReferenceOnEdgeColumns) {
  // Empty relation, and columns that are all NULL.
  Relation::Builder empty(Schema({Attribute{"i", DataType::kInt},
                                  Attribute{"s", DataType::kString}}));
  ExpectMatchesReference(std::move(empty).Build());
  Relation::Builder nulls(Schema({Attribute{"i", DataType::kInt},
                                  Attribute{"d", DataType::kDouble},
                                  Attribute{"s", DataType::kString}}));
  for (int r = 0; r < 4; ++r) {
    ASSERT_TRUE(
        nulls.AddRow({Value::Null(), Value::Null(), Value::Null()}).ok());
  }
  Relation all_null = std::move(nulls).Build();
  ExpectMatchesReference(all_null);
  EXPECT_EQ(CodedRelation::Encode(all_null).column(0).num_distinct, 1);
}

TEST(CodedRelationTest, SignedZerosShareACodeUnlessLexicographic) {
  Relation::Builder b(Schema({Attribute{"d", DataType::kDouble}}));
  for (double v : {0.0, -0.0, -1.0, 0.0}) {
    ASSERT_TRUE(b.AddRow({Value::Double(v)}).ok());
  }
  Relation table = std::move(b).Build();
  EXPECT_EQ(CodedRelation::Encode(table).column(0).codes,
            (std::vector<std::int32_t>{1, 1, 0, 1}));
  EncodeOptions lex;
  lex.force_lexicographic = true;
  // "-0" < "-1" < "0".
  EXPECT_EQ(CodedRelation::Encode(table, lex).column(0).codes,
            (std::vector<std::int32_t>{2, 0, 1, 2}));
  ExpectMatchesReference(table);
}

}  // namespace
}  // namespace ocdd::rel
