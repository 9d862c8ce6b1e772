// Robustness property for the model codec: start from the model files an
// older build wrote (serve/testdata: a v1 and a v2 snapshot and a bare
// model file), damage them with seeded byte flips, truncations, span
// duplications and deletions, and line-boundary splices of one file into
// another, and ParseSnapshot must either return a non-OK Status or yield a
// snapshot that (a) serializes to bytes which re-parse to the same bytes
// and (b) scores an in-width point, finite or NaN, without aborting. It
// must never crash, hang or allocate from a damaged count.

#include <algorithm>
#include <cctype>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/file_util.h"
#include "common/rng.h"
#include "serve/snapshot.h"

namespace hido {
namespace serve {
namespace {

constexpr size_t kMutantsPerFixture = 2000;

const std::vector<std::string>& Fixtures() {
  static const std::vector<std::string> fixtures = [] {
    std::vector<std::string> texts;
    for (const char* name : {"v1.snapshot", "v2.snapshot", "bare.hido"}) {
      const Result<FileBytes> bytes =
          ReadFile(std::string(HIDO_SERVE_TESTDATA) + "/" + name);
      texts.push_back(bytes.ok() ? std::string(bytes.value().view())
                                 : std::string());
    }
    return texts;
  }();
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
  static const std::string kStructural = " \n:-+.0123456789eE\x01";
  const size_t mutations = 1 + rng.UniformIndex(3);
  for (size_t m = 0; m < mutations && !text.empty(); ++m) {
    const size_t pos = rng.UniformIndex(text.size());
    const size_t len =
        std::min<size_t>(text.size() - pos, 1 + rng.UniformIndex(64));
    switch (rng.UniformIndex(7)) {
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
      case 5:  // swap a digit for another: keeps a v2 block's length
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
    }
  }
  return text;
}

class SnapshotMutationProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(SnapshotMutationProperty, MutantFailsCleanlyOrRoundTrips) {
  const std::string& fixture = Fixtures()[GetParam()];
  ASSERT_FALSE(fixture.empty());
  size_t parsed_ok = 0;
  for (uint64_t seed = 1; seed <= kMutantsPerFixture; ++seed) {
    Rng rng(seed * 7919 + GetParam());
    const std::string mutant = Mutate(fixture, rng);
    const Result<ModelSnapshot> parsed = ParseSnapshot(mutant);
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kParseError)
          << "seed " << seed << ": " << parsed.status().ToString();
      continue;
    }
    ++parsed_ok;
    const std::string once = SerializeSnapshot(parsed.value());
    const Result<ModelSnapshot> again = ParseSnapshot(once);
    ASSERT_TRUE(again.ok()) << "seed " << seed << ": "
                            << again.status().ToString();
    EXPECT_EQ(SerializeSnapshot(again.value()), once) << "seed " << seed;

    const ensemble::Model& model = parsed.value().model;
    std::vector<double> point(model.num_dims());
    for (double& v : point) {
      v = rng.Bernoulli(0.2) ? std::numeric_limits<double>::quiet_NaN()
                             : rng.UniformDouble(-0.5, 1.5);
    }
    model.Score(point);
    point.assign(point.size(), std::numeric_limits<double>::quiet_NaN());
    EXPECT_EQ(model.Score(point).covering_projections, 0u)
        << "seed " << seed;
  }
  // Some damage (a flipped digit in a cut, a duplicated cube line) still
  // parses; the round-trip branch must actually run.
  EXPECT_GT(parsed_ok, 0u);
}

std::string FixtureName(const ::testing::TestParamInfo<size_t>& info) {
  static const char* const kNames[] = {"v1", "v2", "bare"};
  return kNames[info.param];
}

INSTANTIATE_TEST_SUITE_P(OlderBuildFiles, SnapshotMutationProperty,
                         ::testing::Values(0, 1, 2), FixtureName);

}  // namespace
}  // namespace serve
}  // namespace hido
