#include "relation/relation.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace ocdd::rel {
namespace {

Schema TwoColSchema() {
  return Schema({Attribute{"a", DataType::kInt},
                 Attribute{"b", DataType::kString}});
}

TEST(SchemaTest, FindColumn) {
  Schema s = TwoColSchema();
  EXPECT_EQ(s.FindColumn("a"), 0u);
  EXPECT_EQ(s.FindColumn("b"), 1u);
  EXPECT_FALSE(s.FindColumn("c").has_value());
}

TEST(SchemaTest, ToString) {
  EXPECT_EQ(TwoColSchema().ToString(), "a:int, b:string");
}

TEST(RelationBuilderTest, BuildsRows) {
  Relation::Builder b(TwoColSchema());
  ASSERT_TRUE(b.AddRow({Value::Int(1), Value::String("x")}).ok());
  ASSERT_TRUE(b.AddRow({Value::Null(), Value::Null()}).ok());
  Relation r = std::move(b).Build();
  EXPECT_EQ(r.num_rows(), 2u);
  EXPECT_EQ(r.num_columns(), 2u);
  EXPECT_EQ(r.ValueAt(0, 0), Value::Int(1));
  EXPECT_EQ(r.ValueAt(0, 1), Value::String("x"));
  EXPECT_TRUE(r.ValueAt(1, 0).is_null());
}

TEST(RelationBuilderTest, RejectsWrongWidth) {
  Relation::Builder b(TwoColSchema());
  EXPECT_FALSE(b.AddRow({Value::Int(1)}).ok());
  EXPECT_FALSE(
      b.AddRow({Value::Int(1), Value::String("x"), Value::Int(2)}).ok());
}

TEST(RelationBuilderTest, RejectsTypeMismatch) {
  Relation::Builder b(TwoColSchema());
  EXPECT_FALSE(b.AddRow({Value::String("not int"), Value::String("x")}).ok());
  EXPECT_FALSE(b.AddRow({Value::Int(1), Value::Int(2)}).ok());
}

TEST(RelationBuilderTest, IntWidensIntoDoubleColumn) {
  Schema s({Attribute{"d", DataType::kDouble}});
  Relation::Builder b(s);
  ASSERT_TRUE(b.AddRow({Value::Int(3)}).ok());
  Relation r = std::move(b).Build();
  EXPECT_EQ(r.ValueAt(0, 0), Value::Double(3.0));
}

TEST(RelationTest, FromColumnsValidatesShape) {
  Schema s = TwoColSchema();
  std::vector<Column> cols;
  cols.push_back(Column::FromValues(DataType::kInt,
                                    {Value::Int(1), Value::Int(2)}));
  cols.push_back(
      Column::FromValues(DataType::kString, {Value::String("a")}));  // ragged
  EXPECT_FALSE(Relation::FromColumns(s, std::move(cols)).ok());
}

TEST(RelationTest, FromColumnsValidatesTypes) {
  Schema s = TwoColSchema();
  std::vector<Column> cols;
  cols.push_back(Column::FromValues(DataType::kString, {Value::String("a")}));
  cols.push_back(Column::FromValues(DataType::kString, {Value::String("b")}));
  EXPECT_FALSE(Relation::FromColumns(s, std::move(cols)).ok());
}

TEST(RelationTest, ProjectColumnsReordersAndSubsets) {
  Relation r = testutil::IntTable({{1, 2}, {10, 20}, {100, 200}});
  auto proj = r.ProjectColumns({2, 0});
  ASSERT_TRUE(proj.ok());
  EXPECT_EQ(proj->num_columns(), 2u);
  EXPECT_EQ(proj->schema().attribute(0).name, "C");
  EXPECT_EQ(proj->ValueAt(1, 0), Value::Int(200));
  EXPECT_EQ(proj->ValueAt(1, 1), Value::Int(2));
}

TEST(RelationTest, ProjectColumnsOutOfRange) {
  Relation r = testutil::IntTable({{1, 2}});
  EXPECT_FALSE(r.ProjectColumns({5}).ok());
}

TEST(RelationTest, HeadRows) {
  Relation r = testutil::IntTable({{1, 2, 3, 4, 5}});
  Relation head = r.HeadRows(3);
  EXPECT_EQ(head.num_rows(), 3u);
  EXPECT_EQ(head.ValueAt(2, 0), Value::Int(3));
  // Requesting more rows than available returns everything.
  EXPECT_EQ(r.HeadRows(99).num_rows(), 5u);
}

TEST(RelationTest, SelectRowsReorders) {
  Relation r = testutil::IntTable({{10, 20, 30}});
  Relation sel = r.SelectRows({2, 0});
  EXPECT_EQ(sel.num_rows(), 2u);
  EXPECT_EQ(sel.ValueAt(0, 0), Value::Int(30));
  EXPECT_EQ(sel.ValueAt(1, 0), Value::Int(10));
}

TEST(ColumnTest, TypedAppendersMatchValueAppend) {
  Column typed(DataType::kDouble);
  typed.AppendNull();
  typed.AppendDouble(-0.5);
  Column from_values = Column::FromValues(
      DataType::kDouble, {Value::Null(), Value::Double(-0.5)});
  ASSERT_EQ(typed.size(), 2u);
  for (std::size_t r = 0; r < typed.size(); ++r) {
    EXPECT_EQ(typed.is_null(r), from_values.is_null(r));
    EXPECT_EQ(typed.ValueAt(r), from_values.ValueAt(r));
  }
  Column strings(DataType::kString);
  strings.AppendString(std::string_view("abc").substr(1));
  EXPECT_EQ(strings.string_at(0), "bc");
}

}  // namespace
}  // namespace ocdd::rel
