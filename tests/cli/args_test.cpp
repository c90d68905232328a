#include "cli/args.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/error.hpp"

namespace cwgl::cli {
namespace {

Args parse(std::initializer_list<const char*> tokens,
           const Args::FlagSet& flags = {}) {
  std::vector<const char*> argv{"cwgl", "cmd"};
  argv.insert(argv.end(), tokens.begin(), tokens.end());
  return Args::parse(static_cast<int>(argv.size()), argv.data(), 2, flags);
}

TEST(Args, KeyValuePairs) {
  const Args args = parse({"--jobs", "500", "--out", "/tmp/x"});
  EXPECT_EQ(args.get("jobs"), "500");
  EXPECT_EQ(args.get("out"), "/tmp/x");
  EXPECT_EQ(args.get_int("jobs").value(), 500);
}

TEST(Args, EqualsFormJoinsKeyAndValue) {
  const Args args = parse({"--jobs=500", "--out=/tmp/x", "--metrics"});
  EXPECT_EQ(args.get_int("jobs").value(), 500);
  EXPECT_EQ(args.get("out"), "/tmp/x");
  EXPECT_TRUE(args.has("metrics"));
}

TEST(Args, EqualsFormAllowsEmptyAndEmbeddedEquals) {
  const Args args = parse({"--out=", "--expr=a=b"});
  EXPECT_EQ(args.get("out", "fallback"), "");
  // Only the first '=' splits; the rest belongs to the value.
  EXPECT_EQ(args.get("expr"), "a=b");
}

TEST(Args, MissingKeyUsesFallback) {
  const Args args = parse({});
  EXPECT_EQ(args.get("trace", "default"), "default");
  EXPECT_FALSE(args.get_int("jobs").has_value());
  EXPECT_FALSE(args.get_double("online").has_value());
}

TEST(Args, BooleanFlags) {
  const Args args = parse({"--natural", "--jobs", "10", "--matrix"});
  EXPECT_TRUE(args.has("natural"));
  EXPECT_TRUE(args.has("matrix"));
  EXPECT_FALSE(args.has("no-instances"));
  EXPECT_EQ(args.get_int("jobs").value(), 10);
}

TEST(Args, FlagFollowedByKeyIsFlag) {
  const Args args = parse({"--natural", "--out", "dir"});
  EXPECT_TRUE(args.has("natural"));
  EXPECT_EQ(args.get("out"), "dir");
}

TEST(Args, NonNumericIntThrows) {
  const Args args = parse({"--jobs", "many"});
  EXPECT_THROW(args.get_int("jobs"), util::InvalidArgument);
}

TEST(Args, NonNumericDoubleThrows) {
  const Args args = parse({"--online", "high"});
  EXPECT_THROW(args.get_double("online"), util::InvalidArgument);
}

TEST(Args, DoubleParses) {
  const Args args = parse({"--online", "0.4"});
  EXPECT_DOUBLE_EQ(args.get_double("online").value(), 0.4);
}

TEST(Args, PositionalsKeepAppearanceOrder) {
  const Args args = parse({"first.csv", "--model", "m.cwgl", "second.csv"});
  EXPECT_EQ(args.get("model"), "m.cwgl");
  ASSERT_EQ(args.positional_count(), 2u);
  EXPECT_EQ(args.positional(0), "first.csv");
  EXPECT_EQ(args.positional(1), "second.csv");
}

TEST(Args, PositionalFallbackWhenAbsent) {
  const Args args = parse({"--jobs", "5"});
  EXPECT_EQ(args.positional_count(), 0u);
  EXPECT_EQ(args.positional(0, "default.csv"), "default.csv");
}

TEST(Args, ValueLessFlagNeverTakesTheNextToken) {
  const Args args = parse({"--json", "jobs.csv"}, {"json"});
  EXPECT_EQ(args.get("json", "fallback"), "");
  ASSERT_EQ(args.positional_count(), 1u);
  EXPECT_EQ(args.positional(0), "jobs.csv");
}

TEST(Args, UndeclaredFlagTakesTheNextToken) {
  const Args args = parse({"--json", "jobs.csv"});
  EXPECT_EQ(args.get("json"), "jobs.csv");
  EXPECT_EQ(args.positional_count(), 0u);
}

TEST(Args, ShortDashTokensArePositionals) {
  const Args args = parse({"-", "--", "-x", "--jobs", "5"});
  EXPECT_EQ(args.get_int("jobs").value(), 5);
  ASSERT_EQ(args.positional_count(), 3u);
  EXPECT_EQ(args.positional(0), "-");
  EXPECT_EQ(args.positional(1), "--");
  EXPECT_EQ(args.positional(2), "-x");
}

TEST(Args, RepeatedKeyKeepsTheLastValue) {
  const Args args = parse({"--jobs", "5", "--jobs=7", "--json", "--json"},
                          {"json"});
  EXPECT_EQ(args.get_int("jobs").value(), 7);
  EXPECT_TRUE(args.has("json"));
  EXPECT_EQ(args.values().size(), 2u);
}

TEST(Args, ValuesListEveryKeyInNameOrder) {
  const Args args = parse({"--seed", "3", "--json", "--jobs=5"});
  std::vector<std::string> keys;
  for (const auto& [key, value] : args.values()) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{"jobs", "json", "seed"}));
}

}  // namespace
}  // namespace cwgl::cli
