// Tests for the string helpers used by benchmark flag parsing.
#include "src/common/strings.h"

#include <gtest/gtest.h>

namespace rwle {
namespace {

TEST(SplitCommaListTest, BasicSplit) {
  const auto tokens = SplitCommaList("a,bb,ccc");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0], "a");
  EXPECT_EQ(tokens[1], "bb");
  EXPECT_EQ(tokens[2], "ccc");
}

TEST(SplitCommaListTest, DropsEmptyTokens) {
  EXPECT_EQ(SplitCommaList("").size(), 0u);
  EXPECT_EQ(SplitCommaList(",,").size(), 0u);
  const auto tokens = SplitCommaList(",1,,2,");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0], "1");
  EXPECT_EQ(tokens[1], "2");
}

TEST(SplitCommaListTest, SingleToken) {
  const auto tokens = SplitCommaList("solo");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0], "solo");
}

TEST(ParseUintListTest, ParsesNumbers) {
  bool ok = false;
  const auto values = ParseUintList("1,2,32,80", &ok);
  EXPECT_TRUE(ok);
  ASSERT_EQ(values.size(), 4u);
  EXPECT_EQ(values[0], 1u);
  EXPECT_EQ(values[3], 80u);
}

TEST(ParseUintListTest, RejectsMalformed) {
  bool ok = true;
  EXPECT_TRUE(ParseUintList("1,x,3", &ok).empty());
  EXPECT_FALSE(ok);
  ok = true;
  EXPECT_TRUE(ParseUintList("12a", &ok).empty());
  EXPECT_FALSE(ok);
  ok = true;
  EXPECT_TRUE(ParseUintList("4294967297", &ok).empty());  // would wrap to 1
  EXPECT_FALSE(ok);
}

TEST(ParseUintListTest, EmptyInputIsOkAndEmpty) {
  bool ok = false;
  EXPECT_TRUE(ParseUintList("", &ok).empty());
  EXPECT_TRUE(ok);
}

}  // namespace
}  // namespace rwle
