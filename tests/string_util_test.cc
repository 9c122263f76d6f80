#include "common/string_util.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>

namespace ocdd {
namespace {

TEST(StripAsciiWhitespaceTest, StripsBothEnds) {
  EXPECT_EQ(StripAsciiWhitespace("  abc \t\n"), "abc");
  EXPECT_EQ(StripAsciiWhitespace("abc"), "abc");
  EXPECT_EQ(StripAsciiWhitespace(""), "");
  EXPECT_EQ(StripAsciiWhitespace("   "), "");
  EXPECT_EQ(StripAsciiWhitespace(" a b "), "a b");
}

TEST(SplitStringTest, KeepsEmptyFields) {
  EXPECT_EQ(SplitString("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(SplitString("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(SplitString("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(SplitString(",", ','), (std::vector<std::string>{"", ""}));
  EXPECT_EQ(SplitString("abc", ';'), (std::vector<std::string>{"abc"}));
}

TEST(JoinStringsTest, Joins) {
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(JoinStrings({}, ","), "");
  EXPECT_EQ(JoinStrings({"one"}, ","), "one");
}

TEST(AsciiToLowerTest, LowersOnlyAscii) {
  EXPECT_EQ(AsciiToLower("AbC123"), "abc123");
  EXPECT_EQ(AsciiToLower(""), "");
}

TEST(ParseInt64Test, AcceptsPlainIntegers) {
  EXPECT_EQ(ParseInt64("0"), 0);
  EXPECT_EQ(ParseInt64("42"), 42);
  EXPECT_EQ(ParseInt64("-17"), -17);
  EXPECT_EQ(ParseInt64("+5"), 5);
  EXPECT_EQ(ParseInt64("9223372036854775807"), 9223372036854775807LL);
}

TEST(ParseInt64Test, RejectsGarbage) {
  EXPECT_FALSE(ParseInt64("").has_value());
  EXPECT_FALSE(ParseInt64("12a").has_value());
  EXPECT_FALSE(ParseInt64("1.5").has_value());
  EXPECT_FALSE(ParseInt64(" 12").has_value());
  EXPECT_FALSE(ParseInt64("12 ").has_value());
  EXPECT_FALSE(ParseInt64("99999999999999999999").has_value());  // overflow
}

TEST(ParseInt64Test, RejectsASecondSignAfterPlus) {
  EXPECT_FALSE(ParseInt64("+-5").has_value());
  EXPECT_FALSE(ParseInt64("+-0").has_value());
  EXPECT_FALSE(ParseInt64("++5").has_value());
  EXPECT_FALSE(ParseInt64("+").has_value());
  EXPECT_EQ(ParseInt64("+5"), 5);
}

TEST(ParseDoubleTest, AcceptsDecimals) {
  EXPECT_DOUBLE_EQ(*ParseDouble("1.5"), 1.5);
  EXPECT_DOUBLE_EQ(*ParseDouble("-0.25"), -0.25);
  EXPECT_DOUBLE_EQ(*ParseDouble("1e3"), 1000.0);
  EXPECT_DOUBLE_EQ(*ParseDouble("42"), 42.0);
}

TEST(ParseDoubleTest, RejectsNonNumbers) {
  EXPECT_FALSE(ParseDouble("").has_value());
  EXPECT_FALSE(ParseDouble("abc").has_value());
  EXPECT_FALSE(ParseDouble("1.5x").has_value());
  EXPECT_FALSE(ParseDouble("inf").has_value());
  EXPECT_FALSE(ParseDouble("nan").has_value());
  EXPECT_FALSE(ParseDouble("0x1p3").has_value());
  for (const char* text : {"Inf", "-inf", "+inf", "infinity", "NaN", "-nan",
                           "nan(1)", "1e5x", "1.5 ", " 1.5"}) {
    EXPECT_FALSE(ParseDouble(text).has_value()) << text;
  }
}

// ParseDouble's definition is strtod over the whole field; the from_chars
// fast path must not change any result, down to the bits.
TEST(ParseDoubleTest, MatchesStrtodBitForBit) {
  for (const char* text :
       {"+1.5", "1e999", "-1e999", "1e-400", "-1e-400", "1e-310", "5.", ".5",
        "-.5", "-0.0", "0.0", "-0", "+0", "0.1", "0.10000000000000001",
        "12345678901234567", "9007199254740993", "1.7976931348623157e308",
        "2.2250738585072014e-308", "4.9406564584124654e-324", "1E5", "1e+5",
        "0.089999999999999997", "44227.199999999997", "+.5e-3"}) {
    SCOPED_TRACE(text);
    char* end = nullptr;
    const double expected = std::strtod(text, &end);
    ASSERT_EQ(*end, '\0');
    auto parsed = ParseDouble(text);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(std::memcmp(&*parsed, &expected, sizeof(double)), 0)
        << *parsed << " vs " << expected;
  }
  EXPECT_TRUE(std::isinf(*ParseDouble("1e999")));
  EXPECT_TRUE(std::signbit(*ParseDouble("-0.0")));
  EXPECT_EQ(*ParseDouble("1e-400"), 0.0);
}

TEST(ParseDoubleTest, RejectsWhatStrtodLeavesUnconsumed) {
  for (const char* text : {".", "-", "+", "e5", "1e", "1e+", "1.5.2", "--1",
                           "+-1", "1-2"}) {
    EXPECT_FALSE(ParseDouble(text).has_value()) << text;
  }
  // Longer than the stack buffer of the strtod fallback.
  EXPECT_EQ(ParseDouble("+" + std::string(80, '1')),
            std::strtod(std::string(80, '1').c_str(), nullptr));
}

}  // namespace
}  // namespace ocdd
