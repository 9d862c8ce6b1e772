#include "eval/metrics.h"

#include <gtest/gtest.h>

namespace hido {
namespace {

TEST(EvaluateRareClassesTest, PaperArrhythmiaNumbers) {
  // The paper: 85 flagged, 43 rare, base rate 14.6%.
  std::vector<int32_t> labels(452, 1);
  // 66 rare rows labelled class 3.
  for (size_t i = 0; i < 66; ++i) labels[i] = 3;
  std::vector<size_t> flagged;
  for (size_t i = 0; i < 43; ++i) flagged.push_back(i);         // rare
  for (size_t i = 100; i < 142; ++i) flagged.push_back(i);      // common
  const RareClassStats stats = EvaluateRareClasses(flagged, labels, {3});
  EXPECT_EQ(stats.flagged, 85u);
  EXPECT_EQ(stats.rare_flagged, 43u);
  EXPECT_NEAR(stats.precision, 43.0 / 85.0, 1e-12);
  EXPECT_NEAR(stats.recall, 43.0 / 66.0, 1e-12);
  EXPECT_NEAR(stats.lift, (43.0 / 85.0) / (66.0 / 452.0), 1e-12);
}

TEST(EvaluateRareClassesTest, EmptyFlagged) {
  const RareClassStats stats = EvaluateRareClasses({}, {1, 2, 3}, {3});
  EXPECT_EQ(stats.flagged, 0u);
  EXPECT_EQ(stats.precision, 0.0);
  EXPECT_EQ(stats.recall, 0.0);
}

TEST(EvaluateRareClassesTest, DuplicateFlagsCountOnce) {
  const std::vector<int32_t> labels = {3, 1};
  const RareClassStats stats =
      EvaluateRareClasses({0, 0, 0}, labels, {3});
  EXPECT_EQ(stats.flagged, 1u);
  EXPECT_EQ(stats.rare_flagged, 1u);
}

TEST(EvaluateRareClassesTest, MultipleRareClasses) {
  const std::vector<int32_t> labels = {3, 4, 1, 1};
  const RareClassStats stats =
      EvaluateRareClasses({0, 1, 2}, labels, {3, 4});
  EXPECT_EQ(stats.rare_flagged, 2u);
}

TEST(RecallPrecisionTest, BasicOverlap) {
  const std::vector<size_t> flagged = {1, 2, 3, 4};
  const std::vector<size_t> planted = {3, 4, 5};
  EXPECT_NEAR(RecallOfPlanted(flagged, planted), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(PrecisionOfPlanted(flagged, planted), 2.0 / 4.0, 1e-12);
}

TEST(RecallPrecisionTest, EmptySets) {
  EXPECT_EQ(RecallOfPlanted({1}, {}), 0.0);
  EXPECT_EQ(PrecisionOfPlanted({}, {1}), 0.0);
}

}  // namespace
}  // namespace hido
