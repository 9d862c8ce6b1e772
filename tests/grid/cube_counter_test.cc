#include "grid/cube_counter.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/generators/synthetic.h"
#include "testing/count_oracle.h"

namespace hido {
namespace {

GridModel MakeGrid(size_t n, size_t d, size_t phi, uint64_t seed) {
  GridModel::Options opts;
  opts.phi = phi;
  return GridModel::Build(GenerateUniform(n, d, seed), opts);
}

std::vector<DimRange> RandomConditions(const GridModel& grid, size_t k,
                                       Rng& rng) {
  std::vector<DimRange> conditions;
  const std::vector<size_t> dims =
      rng.SampleWithoutReplacement(grid.num_dims(), k);
  for (size_t d : dims) {
    conditions.push_back({static_cast<uint32_t>(d),
                          static_cast<uint32_t>(rng.UniformIndex(grid.phi()))});
  }
  return conditions;
}

TEST(CubeCounterTest, SingleConditionMatchesPostingList) {
  const GridModel grid = MakeGrid(500, 3, 5, 1);
  CubeCounter counter(grid);
  for (uint32_t cell = 0; cell < 5; ++cell) {
    EXPECT_EQ(counter.Count({{0, cell}}), grid.RangeCardinality(0, cell));
  }
}

// Forced strategies agree with each other and with the row-scan oracle,
// and each forced counter serves every query by its own strategy.
TEST(CubeCounterTest, AllStrategiesAgree) {
  const GridModel grid = MakeGrid(700, 6, 4, 2);
  CubeCounter bitset_counter(grid, {CountingStrategy::kBitset});
  CubeCounter posting_counter(grid, {CountingStrategy::kPostingList});
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t k = 1 + rng.UniformIndex(4);
    const std::vector<DimRange> conditions = RandomConditions(grid, k, rng);
    const size_t expected = CountByScan(grid, conditions);
    EXPECT_EQ(bitset_counter.Count(conditions), expected);
    EXPECT_EQ(posting_counter.Count(conditions), expected);
  }
  EXPECT_EQ(bitset_counter.stats().queries, 50u);
  EXPECT_EQ(bitset_counter.stats().bitset_counts, 50u);
  EXPECT_EQ(posting_counter.stats().queries, 50u);
  EXPECT_EQ(posting_counter.stats().posting_counts, 50u);
}

TEST(CubeCounterTest, ConditionOrderDoesNotMatter) {
  const GridModel grid = MakeGrid(400, 4, 3, 5);
  CubeCounter counter(grid);
  const std::vector<DimRange> a = {{0, 1}, {2, 0}, {3, 2}};
  const std::vector<DimRange> b = {{3, 2}, {0, 1}, {2, 0}};
  EXPECT_EQ(counter.Count(a), counter.Count(b));
}

TEST(CubeCounterTest, CoveredPointsMatchCount) {
  const GridModel grid = MakeGrid(600, 5, 4, 9);
  CubeCounter counter(grid);
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const std::vector<DimRange> conditions = RandomConditions(grid, 2, rng);
    const std::vector<uint32_t> covered = counter.CoveredPoints(conditions);
    EXPECT_EQ(covered.size(), counter.Count(conditions));
    for (uint32_t row : covered) {
      EXPECT_TRUE(grid.Covers(row, conditions));
    }
  }
}

TEST(CubeCounterTest, FullConjunctionOfOnePointCell) {
  // A cube conditioned on every dimension of a single point contains
  // at least that point.
  const GridModel grid = MakeGrid(100, 3, 4, 13);
  CubeCounter counter(grid);
  std::vector<DimRange> conditions;
  for (size_t d = 0; d < 3; ++d) {
    conditions.push_back({static_cast<uint32_t>(d), grid.Cell(42, d)});
  }
  EXPECT_GE(counter.Count(conditions), 1u);
  const std::vector<uint32_t> covered = counter.CoveredPoints(conditions);
  EXPECT_NE(std::find(covered.begin(), covered.end(), 42u), covered.end());
}

// Counts are identical at any container threshold: forcing every range to
// a bitmap, every range to a sorted array, or the auto mix changes only
// the representation each query intersects, never the result. Each
// counter's serving-path stats still reconcile with its query total.
TEST(CubeCounterTest, CountsAgreeAcrossContainerThresholds) {
  const Dataset data = GenerateUniform(500, 5, 21);
  GridModel::Options all_bitmaps;
  all_bitmaps.phi = 4;
  all_bitmaps.array_threshold = 0;
  GridModel::Options all_arrays;
  all_arrays.phi = 4;
  all_arrays.array_threshold = 501;  // every range is sparser than this
  GridModel::Options mixed;
  mixed.phi = 4;  // auto threshold: rows/32
  const GridModel bitmap_grid = GridModel::Build(data, all_bitmaps);
  const GridModel array_grid = GridModel::Build(data, all_arrays);
  const GridModel mixed_grid = GridModel::Build(data, mixed);

  CubeCounter bitmap_counter(bitmap_grid);
  CubeCounter array_counter(array_grid);
  CubeCounter mixed_counter(mixed_grid);
  Rng rng(23);
  for (int trial = 0; trial < 60; ++trial) {
    const size_t k = 1 + rng.UniformIndex(4);
    const std::vector<DimRange> conditions =
        RandomConditions(bitmap_grid, k, rng);
    const size_t expected = bitmap_counter.Count(conditions);
    EXPECT_EQ(array_counter.Count(conditions), expected);
    EXPECT_EQ(mixed_counter.Count(conditions), expected);
  }
  for (const CubeCounter* counter :
       {&bitmap_counter, &array_counter, &mixed_counter}) {
    const CubeCounter::Stats& s = counter->stats();
    EXPECT_EQ(s.queries, s.bitset_counts + s.posting_counts);
  }
}

// The strategy fold: when every container in the cube is an array, auto
// mode routes the query to the posting-list path (probing a handful of
// sorted ids beats streaming bitmap words).
TEST(CubeCounterTest, ChooseRoutesAllArrayCubesToPostings) {
  const Dataset data = GenerateUniform(400, 4, 25);
  GridModel::Options opts;
  opts.phi = 3;
  opts.array_threshold = 401;  // force every range to array form
  const GridModel grid = GridModel::Build(data, opts);
  CubeCounter counter(grid);
  Rng rng(27);
  for (int trial = 0; trial < 20; ++trial) {
    counter.Count(RandomConditions(grid, 2 + rng.UniformIndex(3), rng));
  }
  const CubeCounter::Stats& s = counter.stats();
  EXPECT_EQ(s.posting_counts, s.queries);
  EXPECT_EQ(s.bitset_counts, 0u);
}

// A forced bitset strategy stays correct even when the grid holds array
// containers (the bitset path materializes them on the fly).
TEST(CubeCounterTest, ForcedBitsetCorrectOnArrayContainers) {
  const Dataset data = GenerateUniform(400, 4, 29);
  GridModel::Options opts;
  opts.phi = 3;
  opts.array_threshold = 401;
  const GridModel forced = GridModel::Build(data, opts);
  CubeCounter bitset_counter(forced, {CountingStrategy::kBitset});
  CubeCounter posting_counter(forced, {CountingStrategy::kPostingList});
  Rng rng(31);
  for (int trial = 0; trial < 30; ++trial) {
    const std::vector<DimRange> conditions =
        RandomConditions(forced, 1 + rng.UniformIndex(4), rng);
    const size_t expected = CountByScan(forced, conditions);
    EXPECT_EQ(bitset_counter.Count(conditions), expected);
    EXPECT_EQ(posting_counter.Count(conditions), expected);
  }
}

// The fused bitset count for every k its kernel unrolls (2..8) and for the
// runtime-k loop beyond (9, 10), against the row-scan oracle: on all
// bitmaps, on the auto threshold, and on all arrays, where a forced
// kBitset materializes every container first. 3000 rows leave a ragged
// last word; phi = 2 keeps 10-cubes non-empty.
TEST(CubeCounterTest, CountsMatchOracleUpToTenConditions) {
  const Dataset data = GenerateUniform(3000, 12, 33);
  for (const size_t threshold :
       {size_t{0}, GridModel::kAutoArrayThreshold, size_t{3001}}) {
    GridModel::Options opts;
    opts.phi = 2;
    opts.array_threshold = threshold;
    const GridModel grid = GridModel::Build(data, opts);
    CubeCounter auto_counter(grid);
    CubeCounter bitset_counter(grid, {CountingStrategy::kBitset});
    Rng rng(35);
    for (size_t k = 1; k <= 10; ++k) {
      for (int trial = 0; trial < 8; ++trial) {
        const std::vector<DimRange> conditions =
            RandomConditions(grid, k, rng);
        const size_t expected = CountByScan(grid, conditions);
        EXPECT_EQ(auto_counter.Count(conditions), expected)
            << "threshold=" << threshold << " k=" << k;
        EXPECT_EQ(bitset_counter.Count(conditions), expected)
            << "threshold=" << threshold << " k=" << k;
      }
    }
    EXPECT_EQ(bitset_counter.stats().bitset_counts,
              bitset_counter.stats().queries);
  }
}

TEST(CubeCounterDeathTest, EmptyConditionsAbort) {
  const GridModel grid = MakeGrid(10, 2, 2, 15);
  CubeCounter counter(grid);
  EXPECT_DEATH(counter.Count({}), "empty");
}

// Property: counting distributes over the grid — per-dimension totals of
// 2-cubes over all cells of the second dim equal the 1-cube count.
TEST(CubeCounterTest, MarginalizationProperty) {
  const GridModel grid = MakeGrid(800, 4, 5, 17);
  CubeCounter counter(grid);
  for (uint32_t c0 = 0; c0 < 5; ++c0) {
    size_t total = 0;
    for (uint32_t c1 = 0; c1 < 5; ++c1) {
      total += counter.Count({{0, c0}, {1, c1}});
    }
    EXPECT_EQ(total, counter.Count({{0, c0}}));
  }
}

}  // namespace
}  // namespace hido
