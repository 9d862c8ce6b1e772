// Robustness property for the checkpoint codec: start from checkpoints a
// real search wrote (one interrupted mid-batch, so it holds done, partial
// and unstarted restarts, and one of a finished batch), damage them with
// seeded byte flips, truncations, span duplications and deletions,
// line-boundary splices of one file into another, and numbers replaced by
// huge ones, and ParseCheckpoint must either return a ParseError or yield
// a checkpoint that serializes to bytes which re-parse to the same bytes.
// A parsed checkpoint is then checked against the run it came from; when
// ValidateCheckpoint accepts it, resuming from it must run to completion.
// Nothing may crash, hang or allocate from a damaged count.

#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/file_util.h"
#include "common/rng.h"
#include "common/run_control.h"
#include "core/evolutionary_search.h"
#include "core/search_checkpoint.h"
#include "data/generators/synthetic.h"

namespace hido {
namespace {

constexpr size_t kMutantsPerFixture = 2000;

// A small search, so that resuming every accepted mutant stays cheap.
struct SmallSearch {
  SmallSearch()
      : grid(GridModel::Build(GenerateUniform(150, 5, 3),
                              [] {
                                GridModel::Options o;
                                o.phi = 4;
                                return o;
                              }())),
        objective(grid) {
    options.target_dim = 2;
    options.num_projections = 4;
    options.population_size = 10;
    options.max_generations = 12;
    options.stagnation_generations = 0;
    options.restarts = 3;
    options.seed = 29;
  }

  // The checkpoint file the search leaves behind, interrupted by a
  // failpoint after `polls` stop polls (0: never interrupted). Each test
  // process writes both fixtures and ctest runs the cases as concurrent
  // processes, so the path carries the process id.
  std::string CheckpointText(size_t polls) {
    const std::string path = ::testing::TempDir() + "/checkpoint_property_" +
                             std::to_string(getpid()) + "_" +
                             std::to_string(polls) + ".txt";
    EvolutionaryOptions written = options;
    written.checkpoint_path = path;
    written.checkpoint_every_generations = 2;
    StopToken token;
    if (polls > 0) token.ArmFailpoint(polls);
    written.stop = &token;
    EvolutionarySearch(objective, written);
    const Result<FileBytes> bytes = ReadFile(path);
    std::remove(path.c_str());
    return bytes.ok() ? std::string(bytes.value().view()) : std::string();
  }

  GridModel grid;
  SparsityObjective objective;
  EvolutionaryOptions options;
};

SmallSearch& TheSearch() {
  static SmallSearch search;
  return search;
}

const std::vector<std::string>& Fixtures() {
  static const std::vector<std::string> fixtures = {
      TheSearch().CheckpointText(/*polls=*/20), TheSearch().CheckpointText(0)};
  return fixtures;
}

// A random line start of `text` (0 or just past a '\n').
size_t LineStart(const std::string& text, Rng& rng) {
  std::vector<size_t> starts = {0};
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') starts.push_back(i + 1);
  }
  return starts[rng.UniformIndex(starts.size())];
}

std::string Mutate(std::string text, Rng& rng) {
  static const std::string kStructural = " \n:-+.0123456789eE";
  const size_t mutations = 1 + rng.UniformIndex(3);
  for (size_t m = 0; m < mutations && !text.empty(); ++m) {
    const size_t pos = rng.UniformIndex(text.size());
    const size_t len =
        std::min<size_t>(text.size() - pos, 1 + rng.UniformIndex(64));
    switch (rng.UniformIndex(8)) {
      case 0:  // truncate
        text.resize(pos);
        break;
      case 1:  // flip one bit
        text[pos] = static_cast<char>(text[pos] ^ (1 << rng.UniformIndex(8)));
        break;
      case 2:  // overwrite with a byte the grammar cares about
        text[pos] = kStructural[rng.UniformIndex(kStructural.size())];
        break;
      case 3:  // duplicate a span in place
        text.insert(pos, text.substr(pos, len));
        break;
      case 4:  // delete a span
        text.erase(pos, len);
        break;
      case 5:  // swap a digit for another
        if (std::isdigit(static_cast<unsigned char>(text[pos]))) {
          text[pos] = static_cast<char>('0' + rng.UniformIndex(10));
        }
        break;
      case 6: {  // splice: this text's head onto another fixture's tail
        const std::string& other =
            Fixtures()[rng.UniformIndex(Fixtures().size())];
        text = text.substr(0, LineStart(text, rng)) +
               other.substr(LineStart(other, rng));
        break;
      }
      case 7: {  // a count the parser must not size memory from
        size_t start = pos;
        while (start < text.size() &&
               !std::isdigit(static_cast<unsigned char>(text[start]))) {
          ++start;
        }
        size_t end = start;
        while (end < text.size() &&
               std::isdigit(static_cast<unsigned char>(text[end]))) {
          ++end;
        }
        text.replace(start, end - start, "999999999999");
        break;
      }
    }
  }
  return text;
}

class CheckpointMutationProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(CheckpointMutationProperty, MutantFailsCleanlyOrRoundTrips) {
  const std::string& fixture = Fixtures()[GetParam()];
  ASSERT_FALSE(fixture.empty());
  SmallSearch& run = TheSearch();
  size_t parsed_ok = 0;
  size_t resumed = 0;
  for (uint64_t seed = 1; seed <= kMutantsPerFixture; ++seed) {
    Rng rng(seed * 7919 + GetParam());
    const std::string mutant = Mutate(fixture, rng);
    const Result<EvolutionCheckpoint> parsed = ParseCheckpoint(mutant);
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kParseError)
          << "seed " << seed << ": " << parsed.status().ToString();
      continue;
    }
    ++parsed_ok;
    const std::string once = SerializeCheckpoint(parsed.value());
    const Result<EvolutionCheckpoint> again = ParseCheckpoint(once);
    ASSERT_TRUE(again.ok()) << "seed " << seed << ": "
                            << again.status().ToString();
    EXPECT_EQ(SerializeCheckpoint(again.value()), once) << "seed " << seed;

    const Status valid =
        ValidateCheckpoint(parsed.value(), run.options,
                           GridShape::Of(run.grid), run.objective.expectation());
    if (!valid.ok()) {
      EXPECT_EQ(valid.code(), StatusCode::kFailedPrecondition)
          << "seed " << seed << ": " << valid.ToString();
      continue;
    }
    EvolutionaryOptions resume = run.options;
    resume.resume = &parsed.value();
    const EvolutionResult result = EvolutionarySearch(run.objective, resume);
    EXPECT_TRUE(result.stats.completed) << "seed " << seed;
    ++resumed;
  }
  // Some damage (a flipped digit in a count or a fitness) still parses and
  // some still matches the run; both branches must actually run.
  EXPECT_GT(parsed_ok, 0u);
  EXPECT_GT(resumed, 0u);
}

// The counts a crafted checkpoint could size memory from, each replaced by
// 999999999999: a ParseError, not an allocation failure.
TEST(CheckpointCraftedCounts, HugeCountsFailToParse) {
  const std::string& fixture = Fixtures()[0];
  ASSERT_FALSE(fixture.empty());
  for (const char* key :
       {"\nrestarts ", "\npopulation_size ", "\nnum_dims ", "\nnum_best ",
        "\npopulation ", "\nphi "}) {
    std::string crafted = fixture;
    const size_t found = crafted.find(key);
    ASSERT_NE(found, std::string::npos) << key;
    const size_t start = found + std::string(key).size();
    crafted.replace(start, crafted.find('\n', start) - start,
                    "999999999999");
    const Result<EvolutionCheckpoint> parsed = ParseCheckpoint(crafted);
    ASSERT_FALSE(parsed.ok()) << key;
    EXPECT_EQ(parsed.status().code(), StatusCode::kParseError) << key;
  }
}

std::string FixtureName(const ::testing::TestParamInfo<size_t>& info) {
  static const char* const kNames[] = {"interrupted", "finished"};
  return kNames[info.param];
}

INSTANTIATE_TEST_SUITE_P(WrittenBySearch, CheckpointMutationProperty,
                         ::testing::Values(0, 1), FixtureName);

}  // namespace
}  // namespace hido
