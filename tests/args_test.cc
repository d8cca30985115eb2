#include <gtest/gtest.h>

#include "util/args.h"

namespace inflex {
namespace {

ArgParser Make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return ArgParser(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgParserTest, ParsesKeyEqualsValue) {
  ArgParser p = Make({"--users=100", "--out=dir"});
  EXPECT_EQ(p.GetInt("users", 0).ValueOrDie(), 100);
  EXPECT_EQ(p.GetString("out", ""), "dir");
  EXPECT_TRUE(p.Validate().ok());
}

TEST(ArgParserTest, ParsesKeySpaceValue) {
  ArgParser p = Make({"--users", "250", "--name", "abc"});
  EXPECT_EQ(p.GetInt("users", 0).ValueOrDie(), 250);
  EXPECT_EQ(p.GetString("name", ""), "abc");
  EXPECT_TRUE(p.Validate().ok());
}

TEST(ArgParserTest, BooleanFlags) {
  ArgParser p = Make({"--verbose", "--auto-size"});
  EXPECT_TRUE(p.HasFlag("verbose"));
  EXPECT_TRUE(p.HasFlag("auto-size"));
  EXPECT_FALSE(p.HasFlag("quiet"));
  EXPECT_TRUE(p.Validate().ok());
}

TEST(ArgParserTest, PositionalArguments) {
  ArgParser p = Make({"build", "--k=5", "extra"});
  ASSERT_EQ(p.positional().size(), 2u);
  EXPECT_EQ(p.positional()[0], "build");
  EXPECT_EQ(p.positional()[1], "extra");
  EXPECT_EQ(p.GetInt("k", 0).ValueOrDie(), 5);
}

TEST(ArgParserTest, DefaultsWhenAbsent) {
  ArgParser p = Make({});
  EXPECT_EQ(p.GetInt("k", 42).ValueOrDie(), 42);
  EXPECT_DOUBLE_EQ(p.GetDouble("x", 1.5).ValueOrDie(), 1.5);
  EXPECT_EQ(p.GetString("s", "dflt"), "dflt");
}

TEST(ArgParserTest, TypeErrorsReported) {
  ArgParser p = Make({"--k=abc", "--x=1.2.3"});
  EXPECT_FALSE(p.GetInt("k", 0).ok());
  EXPECT_FALSE(p.GetDouble("x", 0.0).ok());
}

TEST(ArgParserTest, DoubleList) {
  ArgParser p = Make({"--mix=0.5,0.25,0.25"});
  auto list = p.GetDoubleList("mix");
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list.ValueOrDie().size(), 3u);
  EXPECT_DOUBLE_EQ(list.ValueOrDie()[0], 0.5);
  ArgParser q = Make({"--mix=a,b"});
  EXPECT_FALSE(q.GetDoubleList("mix").ok());
  ArgParser r = Make({});
  EXPECT_FALSE(r.GetDoubleList("mix").ok());
}

TEST(ArgParserTest, UnknownOptionRejected) {
  ArgParser p = Make({"--known=1", "--typo=2"});
  EXPECT_EQ(p.GetInt("known", 0).ValueOrDie(), 1);
  Status st = p.Validate();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("typo"), std::string::npos);
}

TEST(ArgParserTest, NegativeNumberAsValue) {
  ArgParser p = Make({"--offset", "-5"});
  // "-5" is not an option (single dash), so it binds as the value.
  EXPECT_EQ(p.GetInt("offset", 0).ValueOrDie(), -5);
}

TEST(ArgParserTest, IntRangeIsInclusive) {
  ArgParser p = Make({"--port=65535", "--threads=0"});
  EXPECT_EQ(p.GetInt("port", -1, -1, 65535).ValueOrDie(), 65535);
  EXPECT_EQ(p.GetInt("threads", 1, 0).ValueOrDie(), 0);
  // The default is the caller's and is returned unchecked.
  EXPECT_EQ(p.GetInt("absent", -1, 0, 10).ValueOrDie(), -1);
}

TEST(ArgParserTest, IntBelowRangeRejected) {
  ArgParser p = Make({"--threads", "-1"});
  auto r = p.GetInt("threads", 0, 0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("--threads"), std::string::npos);
}

TEST(ArgParserTest, IntAboveRangeRejected) {
  ArgParser p = Make({"--listen=70000"});
  auto r = p.GetInt("listen", -1, -1, 65535);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("65535"), std::string::npos);
}

TEST(ArgParserTest, IntOverflowRejected) {
  ArgParser p = Make({"--users=99999999999999999999",
                      "--offset=-99999999999999999999"});
  EXPECT_FALSE(p.GetInt("users", 0).ok());
  EXPECT_FALSE(p.GetInt("offset", 0).ok());
}

}  // namespace
}  // namespace inflex
