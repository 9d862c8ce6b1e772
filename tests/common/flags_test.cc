#include "common/flags.h"

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace hido {
namespace {

FlagParser MakeParser() {
  FlagParser parser("tool", "test tool");
  parser.AddString("name", "default", "a string");
  parser.AddInt("count", 5, "an int");
  parser.AddDouble("ratio", 0.5, "a double");
  parser.AddBool("verbose", false, "a bool");
  return parser;
}

TEST(FlagParserTest, DefaultsWithoutArgs) {
  FlagParser parser = MakeParser();
  ASSERT_TRUE(parser.Parse({}).ok());
  EXPECT_EQ(parser.GetString("name"), "default");
  EXPECT_EQ(parser.GetInt("count"), 5);
  EXPECT_DOUBLE_EQ(parser.GetDouble("ratio"), 0.5);
  EXPECT_FALSE(parser.GetBool("verbose"));
}

TEST(FlagParserTest, EqualsForm) {
  FlagParser parser = MakeParser();
  ASSERT_TRUE(
      parser.Parse({"--name=x", "--count=9", "--ratio=0.25"}).ok());
  EXPECT_EQ(parser.GetString("name"), "x");
  EXPECT_EQ(parser.GetInt("count"), 9);
  EXPECT_DOUBLE_EQ(parser.GetDouble("ratio"), 0.25);
}

TEST(FlagParserTest, SpaceForm) {
  FlagParser parser = MakeParser();
  ASSERT_TRUE(parser.Parse({"--name", "y", "--count", "-3"}).ok());
  EXPECT_EQ(parser.GetString("name"), "y");
  EXPECT_EQ(parser.GetInt("count"), -3);
}

TEST(FlagParserTest, BoolForms) {
  FlagParser parser = MakeParser();
  ASSERT_TRUE(parser.Parse({"--verbose"}).ok());
  EXPECT_TRUE(parser.GetBool("verbose"));

  FlagParser parser2 = MakeParser();
  ASSERT_TRUE(parser2.Parse({"--verbose=false"}).ok());
  EXPECT_FALSE(parser2.GetBool("verbose"));

  FlagParser parser3 = MakeParser();
  ASSERT_TRUE(parser3.Parse({"--verbose", "false"}).ok());
  EXPECT_FALSE(parser3.GetBool("verbose"));
}

TEST(FlagParserTest, PositionalArguments) {
  FlagParser parser = MakeParser();
  ASSERT_TRUE(parser.Parse({"detect", "--count=2", "file.csv"}).ok());
  EXPECT_EQ(parser.positional(),
            (std::vector<std::string>{"detect", "file.csv"}));
}

TEST(FlagParserTest, UnknownFlagFails) {
  FlagParser parser = MakeParser();
  const Status s = parser.Parse({"--nope=1"});
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("nope"), std::string::npos);
}

TEST(FlagParserTest, BadIntFails) {
  FlagParser parser = MakeParser();
  EXPECT_FALSE(parser.Parse({"--count=abc"}).ok());
  EXPECT_FALSE(parser.Parse({"--count=1.5"}).ok());
}

TEST(FlagParserTest, BadBoolFails) {
  FlagParser parser = MakeParser();
  EXPECT_FALSE(parser.Parse({"--verbose=maybe"}).ok());
}

TEST(FlagParserTest, MissingValueFails) {
  FlagParser parser = MakeParser();
  EXPECT_FALSE(parser.Parse({"--name"}).ok());
}

TEST(FlagParserTest, RequiredFlagEnforced) {
  FlagParser parser("tool", "t");
  parser.AddString("input", "", "input file", /*required=*/true);
  EXPECT_FALSE(parser.Parse({}).ok());
  EXPECT_TRUE(parser.Parse({"--input=a.csv"}).ok());
}

TEST(FlagParserTest, HelpListsFlagsAndDefaults) {
  FlagParser parser = MakeParser();
  const std::string help = parser.Help();
  EXPECT_NE(help.find("--name"), std::string::npos);
  EXPECT_NE(help.find("--count"), std::string::npos);
  EXPECT_NE(help.find("a double"), std::string::npos);
  EXPECT_NE(help.find("0.5"), std::string::npos);
}

TEST(FlagParserTest, HelpMarksRequiredFlags) {
  FlagParser parser("tool", "t");
  parser.AddString("input", "", "input file", /*required=*/true);
  parser.AddInt("m", 20, "count");
  const std::string help = parser.Help();
  EXPECT_NE(help.find("required"), std::string::npos);
}

TEST(FlagParserTest, ReparseOverwrites) {
  FlagParser parser = MakeParser();
  ASSERT_TRUE(parser.Parse({"--count=7"}).ok());
  ASSERT_TRUE(parser.Parse({"--count=9", "pos"}).ok());
  EXPECT_EQ(parser.GetInt("count"), 9);
  EXPECT_EQ(parser.positional(), (std::vector<std::string>{"pos"}));
}

TEST(FlagParserTest, DoubleDashAloneIsPositional) {
  // "--" (length 2) does not start a flag body and passes through.
  FlagParser parser = MakeParser();
  ASSERT_TRUE(parser.Parse({"--"}).ok());
  EXPECT_EQ(parser.positional(), (std::vector<std::string>{"--"}));
}

// The flag set and an argument vector of `hido detect`.
FlagParser MakeDetectParser() {
  FlagParser parser("hido detect", "detect");
  parser.AddString("input", "", "CSV file", /*required=*/true);
  parser.AddString("output", "", "report file");
  parser.AddString("crossover", "optimized", "operator");
  parser.AddString("expectation", "uniform", "model");
  parser.AddInt("phi", 0, "ranges");
  parser.AddInt("k", 0, "dimensionality");
  parser.AddInt("m", 20, "projections");
  parser.AddInt("population", 100, "population");
  parser.AddInt("restarts", 1, "restarts");
  parser.AddInt("threads", 1, "threads");
  parser.AddInt("seed", 42, "seed");
  parser.AddDouble("s", -3.0, "target sparsity");
  parser.AddDouble("deadline", 0.0, "seconds");
  parser.AddBool("stats", false, "timings");
  parser.AddBool("encode-categorical", true, "encoding");
  return parser;
}

const std::vector<std::string>& DetectArgs() {
  static const std::vector<std::string> args = {
      "--input", "big.csv",
      "--phi=10",
      "--k", "3",
      "--m", "20",
      "--s=-3",
      "--population", "100",
      "--restarts", "2",
      "--threads=4",
      "--seed", "42",
      "--crossover", "two-point",
      "--expectation=empirical",
      "--stats",
      "--encode-categorical=false",
      "--deadline", "1.5",
      "--output", "report.md"};
  return args;
}

// One to three edits of an argument vector: a bit flip, NUL or non-ASCII
// byte, or truncation inside a token; a token dropped, duplicated or moved;
// or a value no int64 or double holds.
std::vector<std::string> MutateArgs(std::vector<std::string> args, Rng& rng) {
  static const char* const kValues[] = {"99999999999999999999", "1e400",
                                        "-", "--", "=", "", "nan", "-0"};
  const size_t mutations = 1 + rng.UniformIndex(3);
  for (size_t m = 0; m < mutations && !args.empty(); ++m) {
    const size_t at = rng.UniformIndex(args.size());
    std::string& token = args[at];
    const size_t pos = token.empty() ? 0 : rng.UniformIndex(token.size());
    switch (rng.UniformIndex(8)) {
      case 0:  // flip one bit
        if (!token.empty()) {
          token[pos] =
              static_cast<char>(token[pos] ^ (1 << rng.UniformIndex(8)));
        }
        break;
      case 1:  // a NUL byte
        token.insert(pos, 1, '\0');
        break;
      case 2:  // a non-ASCII byte
        token.insert(pos, 1, static_cast<char>(0x80 + rng.UniformIndex(0x80)));
        break;
      case 3:  // truncate
        token.resize(pos);
        break;
      case 4:  // drop the token
        args.erase(args.begin() + static_cast<ptrdiff_t>(at));
        break;
      case 5:  // duplicate it
        args.insert(args.begin() + static_cast<ptrdiff_t>(at), token);
        break;
      case 6:  // move it to the end
        std::rotate(args.begin() + static_cast<ptrdiff_t>(at),
                    args.begin() + static_cast<ptrdiff_t>(at) + 1,
                    args.end());
        break;
      case 7:  // an extreme value
        token = kValues[rng.UniformIndex(std::size(kValues))];
        break;
    }
  }
  return args;
}

// A deterministic mutation sweep: every damaged argument vector parses to
// a Status (never an abort), and after an OK parse every declared flag
// reads back through its typed getter.
TEST(FlagParserMutationSweep, EveryMutantReturnsAStatus) {
  constexpr uint64_t kMutants = 2400;
  size_t parsed = 0;
  for (uint64_t seed = 1; seed <= kMutants; ++seed) {
    Rng rng(seed * 7919);
    FlagParser parser = MakeDetectParser();
    const Status status = parser.Parse(MutateArgs(DetectArgs(), rng));
    if (!status.ok()) {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
          << "seed " << seed << ": " << status.ToString();
      continue;
    }
    ++parsed;
    for (const char* name : {"input", "output", "crossover", "expectation"}) {
      parser.GetString(name);
    }
    for (const char* name :
         {"phi", "k", "m", "population", "restarts", "threads", "seed"}) {
      parser.GetInt(name);
    }
    parser.GetDouble("s");
    parser.GetDouble("deadline");
    parser.GetBool("stats");
    parser.GetBool("encode-categorical");
  }
  // Some damage (a flipped digit, a moved token) still parses.
  EXPECT_GT(parsed, 0u);
  EXPECT_LT(parsed, kMutants);
}

TEST(FlagParserDeathTest, ProgrammerErrors) {
  FlagParser parser = MakeParser();
  EXPECT_DEATH(parser.AddInt("count", 1, "dup"), "duplicate");
  HIDO_UNUSED(parser.Parse({}));
  EXPECT_DEATH(parser.GetInt("name"), "wrong type");
  EXPECT_DEATH(parser.GetString("ghost"), "undeclared");
}

}  // namespace
}  // namespace hido
