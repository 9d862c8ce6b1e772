#include "common/rng.h"

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

namespace hido {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next64(), b.Next64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    equal += (a.Next64() == b.Next64()) ? 1 : 0;
  }
  EXPECT_LT(equal, 4);
}

TEST(RngTest, UniformU64RespectsBound) {
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.UniformU64(bound), bound);
    }
  }
}

TEST(RngTest, UniformU64BoundOneIsAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(rng.UniformU64(1), 0u);
  }
}

TEST(RngTest, UniformIntCoversInclusiveRange) {
  Rng rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all 5 values hit in 1000 draws
}

TEST(RngTest, UniformDoubleInHalfOpenUnit) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformDoubleMeanNearHalf) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.UniformDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, NormalMomentsMatchStandardNormal) {
  Rng rng(19);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal();
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, NormalWithParamsShiftsAndScales) {
  Rng rng(23);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(29);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
    EXPECT_FALSE(rng.Bernoulli(-0.5));
    EXPECT_TRUE(rng.Bernoulli(1.5));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(31);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(37);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = v;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(RngTest, SampleWithoutReplacementDistinctSortedInRange) {
  Rng rng(41);
  for (size_t n : {5u, 20u, 100u}) {
    for (size_t k : {0u, 1u, 3u, 5u}) {
      if (k > n) continue;
      std::vector<size_t> sample;
      rng.SampleWithoutReplacement(n, k, &sample);
      ASSERT_EQ(sample.size(), k);
      EXPECT_TRUE(std::is_sorted(sample.begin(), sample.end()));
      const std::set<size_t> unique(sample.begin(), sample.end());
      EXPECT_EQ(unique.size(), k);
      for (size_t s : sample) EXPECT_LT(s, n);
    }
  }
}

TEST(RngTest, SampleWithoutReplacementFullSet) {
  Rng rng(43);
  std::vector<size_t> sample;
  rng.SampleWithoutReplacement(10, 10, &sample);
  ASSERT_EQ(sample.size(), 10u);
  for (size_t i = 0; i < 10; ++i) EXPECT_EQ(sample[i], i);
}

TEST(RngTest, SampleWithoutReplacementIsUnbiased) {
  // Every index should be picked roughly equally often.
  Rng rng(47);
  std::vector<int> counts(10, 0);
  const int trials = 20000;
  std::vector<size_t> sample;
  for (int t = 0; t < trials; ++t) {
    rng.SampleWithoutReplacement(10, 3, &sample);
    for (size_t idx : sample) counts[idx] += 1;
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / trials, 0.3, 0.02);
  }
}

TEST(RngTest, WeightedIndexZeroWeightNeverPicked) {
  Rng rng(53);
  // Running sums of the weights {1, 0, 2}.
  const std::vector<double> cumulative = {1.0, 1.0, 3.0};
  for (int i = 0; i < 2000; ++i) {
    EXPECT_NE(rng.WeightedIndex(cumulative), 1u);
  }
}

TEST(RngTest, WeightedIndexProportions) {
  Rng rng(59);
  // Running sums of the weights {1, 3}.
  const std::vector<double> cumulative = {1.0, 4.0};
  int first = 0;
  const int n = 40000;
  for (int i = 0; i < n; ++i) {
    first += rng.WeightedIndex(cumulative) == 0 ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(first) / n, 0.25, 0.01);
}

TEST(RngTest, ForStreamIsDeterministicPerStream) {
  Rng a = Rng::ForStream(42, 3);
  Rng b = Rng::ForStream(42, 3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next64(), b.Next64());
  }
}

TEST(RngTest, ForStreamsDivergeAcrossStreamsAndSeeds) {
  // Stream derivation goes through SplitMix64, so even adjacent stream ids
  // (and stream ids equal to other seeds) give unrelated sequences.
  Rng s0 = Rng::ForStream(42, 0);
  Rng s1 = Rng::ForStream(42, 1);
  Rng other_seed = Rng::ForStream(43, 0);
  int equal01 = 0;
  int equal0s = 0;
  for (int i = 0; i < 64; ++i) {
    const uint64_t v0 = s0.Next64();
    equal01 += (v0 == s1.Next64()) ? 1 : 0;
    equal0s += (v0 == other_seed.Next64()) ? 1 : 0;
  }
  EXPECT_LT(equal01, 4);
  EXPECT_LT(equal0s, 4);
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng parent(61);
  Rng child = parent.Split();
  // The child stream should not replay the parent stream.
  Rng parent_replay(61);
  parent_replay.Next64();  // consumed by Split
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    equal += (child.Next64() == parent_replay.Next64()) ? 1 : 0;
  }
  EXPECT_LT(equal, 4);
}

// Property sweep: Lemire rejection keeps small bounds unbiased.
class RngBoundBias : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RngBoundBias, UniformAcrossResidues) {
  const uint64_t bound = GetParam();
  Rng rng(1000 + bound);
  std::vector<int> counts(bound, 0);
  const int n = 30000;
  for (int i = 0; i < n; ++i) {
    counts[rng.UniformU64(bound)] += 1;
  }
  const double expected = static_cast<double>(n) / static_cast<double>(bound);
  for (uint64_t v = 0; v < bound; ++v) {
    EXPECT_NEAR(counts[v] / expected, 1.0, 0.15)
        << "bound " << bound << " value " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(SmallBounds, RngBoundBias,
                         ::testing::Values(2, 3, 5, 7, 10, 16));

}  // namespace
}  // namespace hido
