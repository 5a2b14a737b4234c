#include "util/flags.h"

#include <gtest/gtest.h>

#include <vector>

namespace comparesets {
namespace {

class FlagsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    flags_.AddInt("count", 10, "number of things");
    flags_.AddDouble("rate", 0.5, "a rate");
    flags_.AddString("name", "dflt", "a name");
    flags_.AddBool("verbose", false, "chatty output");
  }

  Status Parse(std::vector<const char*> args) {
    args.insert(args.begin(), "prog");
    return flags_.Parse(static_cast<int>(args.size()),
                        const_cast<char**>(args.data()));
  }

  FlagParser flags_;
};

TEST_F(FlagsTest, DefaultsApplyWithoutArgs) {
  ASSERT_TRUE(Parse({}).ok());
  EXPECT_EQ(flags_.GetInt("count"), 10);
  EXPECT_DOUBLE_EQ(flags_.GetDouble("rate"), 0.5);
  EXPECT_EQ(flags_.GetString("name"), "dflt");
  EXPECT_FALSE(flags_.GetBool("verbose"));
}

TEST_F(FlagsTest, EqualsSyntax) {
  ASSERT_TRUE(Parse({"--count=42", "--rate=1.25", "--name=abc",
                     "--verbose=true"})
                  .ok());
  EXPECT_EQ(flags_.GetInt("count"), 42);
  EXPECT_DOUBLE_EQ(flags_.GetDouble("rate"), 1.25);
  EXPECT_EQ(flags_.GetString("name"), "abc");
  EXPECT_TRUE(flags_.GetBool("verbose"));
}

TEST_F(FlagsTest, SpaceSyntax) {
  ASSERT_TRUE(Parse({"--count", "-3", "--name", "x y"}).ok());
  EXPECT_EQ(flags_.GetInt("count"), -3);
  EXPECT_EQ(flags_.GetString("name"), "x y");
}

TEST_F(FlagsTest, BareBoolEnables) {
  ASSERT_TRUE(Parse({"--verbose"}).ok());
  EXPECT_TRUE(flags_.GetBool("verbose"));
}

TEST_F(FlagsTest, BoolWithExplicitValue) {
  ASSERT_TRUE(Parse({"--verbose", "false"}).ok());
  EXPECT_FALSE(flags_.GetBool("verbose"));
}

TEST_F(FlagsTest, UnknownFlagIsError) {
  Status status = Parse({"--bogus=1"});
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_F(FlagsTest, BadIntIsError) {
  EXPECT_FALSE(Parse({"--count=abc"}).ok());
  EXPECT_FALSE(Parse({"--count=1.5"}).ok());
}

TEST_F(FlagsTest, OutOfRangeIntIsError) {
  // 2^32 + 1 would truncate to 1 through a plain int cast.
  for (const char* arg : {"--count=4294967297", "--count=-4294967297",
                          "--count=2147483648", "--count=-2147483649",
                          "--count=99999999999999999999"}) {
    Status status = Parse({arg});
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << arg;
  }
  EXPECT_EQ(flags_.GetInt("count"), 10);
  ASSERT_TRUE(Parse({"--count=2147483647"}).ok());
  EXPECT_EQ(flags_.GetInt("count"), 2147483647);
  ASSERT_TRUE(Parse({"--count=-2147483648"}).ok());
  EXPECT_EQ(flags_.GetInt("count"), -2147483647 - 1);
}

TEST_F(FlagsTest, CountRefusesNegativeValues) {
  ASSERT_TRUE(Parse({"--count=0"}).ok());
  auto zero = flags_.GetCount("count");
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(zero.value(), 0u);
  ASSERT_TRUE(Parse({"--count=-1"}).ok());
  auto negative = flags_.GetCount("count");
  ASSERT_FALSE(negative.ok());
  EXPECT_EQ(negative.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(FlagsTest, BadDoubleIsError) {
  EXPECT_FALSE(Parse({"--rate=fast"}).ok());
}

TEST_F(FlagsTest, BadBoolIsError) {
  EXPECT_FALSE(Parse({"--verbose=maybe"}).ok());
}

TEST_F(FlagsTest, MissingValueIsError) {
  EXPECT_FALSE(Parse({"--count"}).ok());
}

TEST_F(FlagsTest, PositionalArgumentIsError) {
  EXPECT_FALSE(Parse({"stray"}).ok());
}

TEST_F(FlagsTest, HelpSetsFlagAndSucceeds) {
  ASSERT_TRUE(Parse({"--help"}).ok());
  EXPECT_TRUE(flags_.help_requested());
}

TEST_F(FlagsTest, UsageListsAllFlags) {
  std::string usage = flags_.Usage("prog");
  EXPECT_NE(usage.find("--count"), std::string::npos);
  EXPECT_NE(usage.find("--rate"), std::string::npos);
  EXPECT_NE(usage.find("--name"), std::string::npos);
  EXPECT_NE(usage.find("--verbose"), std::string::npos);
  EXPECT_NE(usage.find("number of things"), std::string::npos);
}

}  // namespace
}  // namespace comparesets
