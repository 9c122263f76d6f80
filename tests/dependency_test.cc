#include "od/dependency.h"

#include <gtest/gtest.h>

#include "od/dependency_set.h"
#include "test_util.h"

namespace ocdd::od {
namespace {

TEST(OrderDependencyTest, ToString) {
  rel::CodedRelation r = testutil::CodedIntTable({{1}, {2}, {3}});
  OrderDependency od{AttributeList{0, 1}, AttributeList{2}};
  EXPECT_EQ(od.ToString(r), "[A,B] -> [C]");
  EXPECT_EQ(od.ToString(), "[0,1] -> [2]");
}

TEST(OrderDependencyTest, OrderingForSets) {
  OrderDependency a{AttributeList{0}, AttributeList{1}};
  OrderDependency b{AttributeList{0}, AttributeList{2}};
  OrderDependency c{AttributeList{1}, AttributeList{0}};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(a, (OrderDependency{AttributeList{0}, AttributeList{1}}));
}

TEST(OrderCompatibilityTest, CanonicalPutsSmallerSideFirst) {
  OrderCompatibility ocd{AttributeList{2}, AttributeList{0}};
  OrderCompatibility canon = ocd.Canonical();
  EXPECT_EQ(canon.lhs, AttributeList{0});
  EXPECT_EQ(canon.rhs, AttributeList{2});
  // Already canonical stays put.
  EXPECT_EQ(canon.Canonical(), canon);
}

TEST(OrderCompatibilityTest, ToString) {
  rel::CodedRelation r = testutil::CodedIntTable({{1}, {2}});
  OrderCompatibility ocd{AttributeList{0}, AttributeList{1}};
  EXPECT_EQ(ocd.ToString(r), "[A] ~ [B]");
}

TEST(FunctionalDependencyTest, ToString) {
  rel::CodedRelation r = testutil::CodedIntTable({{1}, {2}, {3}});
  FunctionalDependency fd{{0, 2}, 1};
  EXPECT_EQ(fd.ToString(r), "{A,C} -> B");
  FunctionalDependency empty{{}, 0};
  EXPECT_EQ(empty.ToString(r), "{} -> A");
}

TEST(CanonicalOdTest, ToStringBothKinds) {
  rel::CodedRelation r = testutil::CodedIntTable({{1}, {2}, {3}});
  CanonicalOd constancy;
  constancy.kind = CanonicalOd::Kind::kConstancy;
  constancy.context = {0};
  constancy.right = 2;
  EXPECT_EQ(constancy.ToString(r), "{A}: [] -> C");

  CanonicalOd compat;
  compat.kind = CanonicalOd::Kind::kOrderCompatible;
  compat.context = {};
  compat.left = 0;
  compat.right = 1;
  EXPECT_EQ(compat.ToString(r), "{}: A ~ B");
}

TEST(SortUniqueTest, SortsAndDeduplicates) {
  std::vector<OrderDependency> v = {
      {AttributeList{1}, AttributeList{0}},
      {AttributeList{0}, AttributeList{1}},
      {AttributeList{1}, AttributeList{0}},
  };
  SortUnique(v);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], (OrderDependency{AttributeList{0}, AttributeList{1}}));
}

}  // namespace
}  // namespace ocdd::od
