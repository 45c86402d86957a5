#include "tools/flag_parser.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

namespace flower::tools {
namespace {

FlagParser MustParse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  auto parsed = FlagParser::Parse(static_cast<int>(argv.size()),
                                  argv.data());
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  return parsed.MoveValueOrDie();
}

TEST(FlagParserTest, KeyValueAndBareFlags) {
  FlagParser flags = MustParse({"--rate=800", "--quiet"});
  EXPECT_TRUE(flags.Has("rate"));
  EXPECT_TRUE(flags.Has("quiet"));
  EXPECT_FALSE(flags.Has("hours"));
  EXPECT_EQ(flags.GetString("rate", ""), "800");
  EXPECT_TRUE(flags.GetBool("quiet"));
}

TEST(FlagParserTest, TypedGettersWithDefaults) {
  constexpr uint64_t kU64Max = std::numeric_limits<uint64_t>::max();
  FlagParser flags = MustParse({"--rate=800.5", "--seed=42"});
  EXPECT_DOUBLE_EQ(*flags.GetDouble("rate", 0.0), 800.5);
  EXPECT_EQ(*flags.GetUnsigned("seed", 0, kU64Max), 42u);
  EXPECT_EQ(*flags.GetUnsigned("seed", 0, 42), 42u);
  EXPECT_EQ(*MustParse({"--seed=18446744073709551615"})
                 .GetUnsigned("seed", 0, kU64Max),
            kU64Max);
  EXPECT_DOUBLE_EQ(*flags.GetDouble("missing", 3.5), 3.5);
  EXPECT_EQ(*flags.GetUnsigned("missing", 7, 1), 7u);
  EXPECT_EQ(flags.GetString("missing", "x"), "x");
}

// Flag values follow common/parse.h's rules, as traces, specs and
// bundles do: no blank, no sign on an integer, and an integer no
// larger than its flag's bound.
TEST(FlagParserTest, MalformedNumbersAreErrors) {
  constexpr uint64_t kU64Max = std::numeric_limits<uint64_t>::max();
  for (const char* arg : {"--seed=4x", "--seed=-1", "--seed=+7",
                          "--seed= 7", "--seed=18446744073709551616",
                          "--seed="}) {
    FlagParser flags = MustParse({arg});
    EXPECT_FALSE(flags.GetUnsigned("seed", 0, kU64Max).ok()) << arg;
  }
  for (const char* arg : {"--hours=fast", "--hours= 1", "--hours=1 ",
                          "--hours="}) {
    FlagParser flags = MustParse({arg});
    EXPECT_FALSE(flags.GetDouble("hours", 0.0).ok()) << arg;
  }
  FlagParser flags = MustParse({"--threads=257"});
  Result<uint64_t> threads = flags.GetUnsigned("threads", 1, 256);
  ASSERT_FALSE(threads.ok());
  EXPECT_NE(threads.status().message().find("[0, 256]"), std::string::npos)
      << threads.status();
}

TEST(FlagParserTest, BoolSemantics) {
  FlagParser flags = MustParse({"--a=false", "--b=0", "--c=true", "--d"});
  EXPECT_FALSE(flags.GetBool("a"));
  EXPECT_FALSE(flags.GetBool("b"));
  EXPECT_TRUE(flags.GetBool("c"));
  EXPECT_TRUE(flags.GetBool("d"));
  EXPECT_TRUE(flags.GetBool("missing", true));
  EXPECT_FALSE(flags.GetBool("missing", false));
}

TEST(FlagParserTest, RejectsNonFlagsAndDuplicates) {
  const char* bad1[] = {"prog", "positional"};
  EXPECT_FALSE(FlagParser::Parse(2, bad1).ok());
  const char* bad2[] = {"prog", "--a=1", "--a=2"};
  EXPECT_FALSE(FlagParser::Parse(3, bad2).ok());
  const char* bad3[] = {"prog", "--"};
  EXPECT_FALSE(FlagParser::Parse(2, bad3).ok());
}

TEST(FlagParserTest, UnknownKeysDetected) {
  FlagParser flags = MustParse({"--rate=1", "--tpyo=2"});
  Status known = flags.CheckKnown({"rate", "hours"}, {"quiet"});
  EXPECT_EQ(known.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(known.message(), "unknown flag: --tpyo");
  EXPECT_TRUE(flags.CheckKnown({"rate", "tpyo"}, {}).ok());
}

// A switch is bare or takes a value ParseBool accepts; "--quiet=no"
// once read as quiet.
TEST(FlagParserTest, SwitchValuesAreChecked) {
  for (const char* arg : {"--quiet", "--quiet=true", "--quiet=false",
                          "--quiet=1", "--quiet=0"}) {
    EXPECT_TRUE(MustParse({arg}).CheckKnown({}, {"quiet"}).ok()) << arg;
  }
  for (const char* arg : {"--quiet=no", "--quiet=off", "--quiet=yes",
                          "--quiet=", "--quiet= true"}) {
    Status known = MustParse({arg}).CheckKnown({}, {"quiet"});
    EXPECT_EQ(known.code(), StatusCode::kInvalidArgument) << arg;
    EXPECT_NE(known.message().find("--quiet"), std::string::npos) << known;
  }
  // An option's value is its getter's to read.
  EXPECT_TRUE(MustParse({"--out=no"}).CheckKnown({"out"}, {"quiet"}).ok());
}

TEST(FlagParserTest, ValueMayContainEquals) {
  FlagParser flags = MustParse({"--expr=a=b"});
  EXPECT_EQ(flags.GetString("expr", ""), "a=b");
}

TEST(FlagParserTest, EmptyArgvIsOk) {
  const char* argv[] = {"prog"};
  auto parsed = FlagParser::Parse(1, argv);
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->Has("anything"));
}

}  // namespace
}  // namespace flower::tools
