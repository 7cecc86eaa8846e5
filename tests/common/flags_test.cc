#include "src/common/flags.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace affsched {
namespace {

FlagSet MakeSet() {
  FlagSet flags("test program");
  flags.AddInt("procs", 16, "number of processors");
  flags.AddDouble("precision", 0.02, "CI precision");
  flags.AddBool("verbose", false, "chatty output");
  flags.AddString("policy", "dyn-aff", "policy name");
  return flags;
}

bool ParseArgs(FlagSet& flags, std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return flags.Parse(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, DefaultsApplyWithoutArgs) {
  FlagSet flags = MakeSet();
  EXPECT_TRUE(ParseArgs(flags, {}));
  EXPECT_EQ(flags.GetInt("procs"), 16);
  EXPECT_DOUBLE_EQ(flags.GetDouble("precision"), 0.02);
  EXPECT_FALSE(flags.GetBool("verbose"));
  EXPECT_EQ(flags.GetString("policy"), "dyn-aff");
}

TEST(FlagsTest, EqualsSyntax) {
  FlagSet flags = MakeSet();
  EXPECT_TRUE(ParseArgs(flags, {"--procs=8", "--precision=0.01", "--policy=equi"}));
  EXPECT_EQ(flags.GetInt("procs"), 8);
  EXPECT_DOUBLE_EQ(flags.GetDouble("precision"), 0.01);
  EXPECT_EQ(flags.GetString("policy"), "equi");
}

TEST(FlagsTest, SpaceSyntax) {
  FlagSet flags = MakeSet();
  EXPECT_TRUE(ParseArgs(flags, {"--procs", "4"}));
  EXPECT_EQ(flags.GetInt("procs"), 4);
}

TEST(FlagsTest, BareBoolean) {
  FlagSet flags = MakeSet();
  EXPECT_TRUE(ParseArgs(flags, {"--verbose"}));
  EXPECT_TRUE(flags.GetBool("verbose"));
}

TEST(FlagsTest, ExplicitBooleanValues) {
  FlagSet flags = MakeSet();
  EXPECT_TRUE(ParseArgs(flags, {"--verbose=true"}));
  EXPECT_TRUE(flags.GetBool("verbose"));
  FlagSet flags2 = MakeSet();
  EXPECT_TRUE(ParseArgs(flags2, {"--verbose=0"}));
  EXPECT_FALSE(flags2.GetBool("verbose"));
}

TEST(FlagsTest, HelpRequested) {
  FlagSet flags = MakeSet();
  EXPECT_FALSE(ParseArgs(flags, {"--help"}));
  EXPECT_TRUE(flags.help_requested());
  EXPECT_NE(flags.Help().find("--procs"), std::string::npos);
  EXPECT_NE(flags.Help().find("number of processors"), std::string::npos);
}

TEST(FlagsTest, UnknownFlagFails) {
  FlagSet flags = MakeSet();
  EXPECT_FALSE(ParseArgs(flags, {"--bogus=1"}));
  EXPECT_NE(flags.error().find("unknown flag"), std::string::npos);
}

TEST(FlagsTest, BadIntegerFails) {
  FlagSet flags = MakeSet();
  EXPECT_FALSE(ParseArgs(flags, {"--procs=abc"}));
  EXPECT_NE(flags.error().find("expects an integer"), std::string::npos);
}

TEST(FlagsTest, BadBooleanFails) {
  FlagSet flags = MakeSet();
  EXPECT_FALSE(ParseArgs(flags, {"--verbose=maybe"}));
}

TEST(FlagsTest, MissingValueFails) {
  FlagSet flags = MakeSet();
  EXPECT_FALSE(ParseArgs(flags, {"--procs"}));
  EXPECT_NE(flags.error().find("missing a value"), std::string::npos);
}

TEST(FlagsTest, PositionalArgumentFails) {
  FlagSet flags = MakeSet();
  EXPECT_FALSE(ParseArgs(flags, {"stray"}));
}

TEST(FlagsTest, ValuesAreParsedStrictly) {
  for (const char* bad : {"--procs=4x", "--procs=+2", "--procs= 4", "--procs=1e3",
                          "--procs=99999999999999999999", "--precision=nan",
                          "--precision=inf", "--precision=0.5x", "--precision=1e999"}) {
    FlagSet flags = MakeSet();
    EXPECT_FALSE(ParseArgs(flags, {bad})) << bad;
    EXPECT_NE(flags.error().find("expects"), std::string::npos) << bad;
  }
  FlagSet flags = MakeSet();
  EXPECT_TRUE(ParseArgs(flags, {"--procs=-3", "--precision=1e-3", "--verbose=on"}));
  EXPECT_EQ(flags.GetInt("procs"), -3);
  EXPECT_DOUBLE_EQ(flags.GetDouble("precision"), 1e-3);
  EXPECT_TRUE(flags.GetBool("verbose"));
}

TEST(ScalarParseTest, IntegersMustFitAndFillTheText) {
  int64_t i = 7;
  EXPECT_TRUE(ParseInt64("-9223372036854775808", &i));
  EXPECT_EQ(i, INT64_MIN);
  EXPECT_FALSE(ParseInt64("9223372036854775808", &i));
  EXPECT_EQ(i, INT64_MIN);  // unchanged on failure
  uint64_t u = 0;
  EXPECT_TRUE(ParseUint64("18446744073709551615", &u));
  EXPECT_EQ(u, UINT64_MAX);
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "1x", "0x10", "1.0", "18446744073709551616"}) {
    EXPECT_FALSE(ParseUint64(bad, &u)) << bad;
  }
}

TEST(ScalarParseTest, DoublesMustBeFinite) {
  double d = 0.0;
  for (const char* good : {"1", "1.0", "1.00", "1e0", "-2.5", ".5", "1e-300"}) {
    EXPECT_TRUE(ParseDouble(good, &d)) << good;
  }
  for (const char* bad : {"", "nan", "inf", "-inf", "1e999", "+1", "1,5", "1.5x", " 1"}) {
    EXPECT_FALSE(ParseDouble(bad, &d)) << bad;
  }
  bool b = false;
  for (const char* on : {"1", "true", "on"}) {
    EXPECT_TRUE(ParseBool(on, &b) && b) << on;
  }
  for (const char* off : {"0", "false", "off"}) {
    EXPECT_TRUE(ParseBool(off, &b) && !b) << off;
  }
  EXPECT_FALSE(ParseBool("yes", &b));
  EXPECT_FALSE(ParseBool("", &b));
}

TEST(SpecTextTest, SplitListKeepsEmptyItems) {
  EXPECT_EQ(SplitList("a,b", ','), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(SplitList("a,,b,", ','), (std::vector<std::string>{"a", "", "b", ""}));
  EXPECT_EQ(SplitList("", ','), (std::vector<std::string>{""}));
}

TEST(SpecTextTest, SplitsHeadAndOverrides) {
  SpecText parts;
  std::string error;
  ASSERT_TRUE(SplitSpecText("fig5;reps=2;;topology=numa-4x8,remote=2;", ';', "sweep", &parts,
                            &error))
      << error;
  EXPECT_EQ(parts.head, "fig5");
  ASSERT_EQ(parts.overrides.size(), 2u);
  EXPECT_EQ(parts.overrides[0], (std::pair<std::string, std::string>{"reps", "2"}));
  EXPECT_EQ(parts.overrides[1].second, "numa-4x8,remote=2");

  ASSERT_TRUE(SplitSpecText("procs=8", ';', "sweep", &parts, &error)) << error;
  EXPECT_EQ(parts.head, "");
  ASSERT_EQ(parts.overrides.size(), 1u);

  EXPECT_FALSE(SplitSpecText("", ';', "sweep", &parts, &error));
  EXPECT_EQ(error, "empty sweep spec");
  EXPECT_FALSE(SplitSpecText(";reps=2", ';', "sweep", &parts, &error));
  EXPECT_FALSE(SplitSpecText("fig5;reps", ';', "sweep", &parts, &error));
  EXPECT_NE(error.find("key=value"), std::string::npos);
}

TEST(FlagsDeathTest, WrongTypeAccessAborts) {
  FlagSet flags = MakeSet();
  ParseArgs(flags, {});
  EXPECT_DEATH(flags.GetInt("policy"), "wrong type");
  EXPECT_DEATH(flags.GetBool("never-registered"), "never registered");
}

}  // namespace
}  // namespace affsched
