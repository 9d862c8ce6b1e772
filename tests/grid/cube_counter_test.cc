#include "grid/cube_counter.h"

#include <algorithm>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/generators/synthetic.h"
#include "testing/count_oracle.h"
#include "testing/heavy_tail.h"

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

// A 1-cube's count is its range's cardinality and its points are the
// range's members.
TEST(CubeCounterTest, SingleConditionMatchesPostingList) {
  const GridModel grid = MakeGrid(500, 3, 5, 1);
  CubeCounter counter(grid);
  for (uint32_t cell = 0; cell < 5; ++cell) {
    EXPECT_EQ(counter.Count({{0, cell}}), grid.RangeCardinality(0, cell));
    EXPECT_EQ(counter.CoveredPoints({{0, cell}}),
              grid.RangeBits(0, cell).ToIndices());
  }
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

// Conditions through one row's cells on k random dimensions: the cube
// holds at least that row, so high-k cubes are not all empty.
std::vector<DimRange> ConditionsThroughRow(const GridModel& grid, size_t k,
                                           Rng& rng) {
  const size_t row = rng.UniformIndex(grid.num_points());
  std::vector<DimRange> conditions;
  for (size_t d : rng.SampleWithoutReplacement(grid.num_dims(), k)) {
    conditions.push_back({static_cast<uint32_t>(d), grid.Cell(row, d)});
  }
  return conditions;
}

// Column 0 is heavily tied (90% of its values equal). Column 1 leaves the
// gap (0.05, 0.95), which equi-width ranges 1..8 see as empty. The rest are
// uniform.
Dataset TiedAndGappedColumns(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  Dataset data(d);
  std::vector<double> row(d);
  for (size_t r = 0; r < n; ++r) {
    row[0] = rng.Bernoulli(0.9) ? 1.0
                                : static_cast<double>(rng.UniformInt(0, 4));
    row[1] = rng.Bernoulli(0.5) ? rng.UniformDouble(0.0, 0.05)
                                : rng.UniformDouble(0.95, 1.0);
    for (size_t c = 2; c < d; ++c) row[c] = rng.UniformDouble();
    data.AppendRow(row);
  }
  return data;
}

// Count and CoveredPoints against the row-scan oracle for the stored 1-cube
// cardinality, every k the fused kernel unrolls (2..8) and the runtime-k
// loop beyond (9, 10). The grids are the shapes with the sparsest ranges:
// heavy-tailed equi-width ranges (most under N/256 rows), phi = 64, a
// heavily tied column and empty ranges; phi = 2 keeps 10-cubes dense.
// 3000 rows leave a ragged last word.
TEST(CubeCounterTest, CountsMatchOracleUpToTenConditions) {
  constexpr size_t kRows = 3000;
  const Dataset uniform = GenerateUniform(kRows, 12, 33);
  const Dataset tied_and_gapped = TiedAndGappedColumns(kRows, 12, 37);
  struct Shape {
    const char* name;
    const Dataset* data;
    size_t phi;
    BinningMode mode;
  };
  const Dataset heavy_tailed = HeavyTailed(uniform);
  const Shape shapes[] = {
      {"phi=2", &uniform, 2, BinningMode::kEquiDepth},
      {"phi=64", &uniform, 64, BinningMode::kEquiDepth},
      {"heavy-tailed equi-width", &heavy_tailed, 10, BinningMode::kEquiWidth},
      {"tied equi-depth", &tied_and_gapped, 10, BinningMode::kEquiDepth},
      {"tied equi-width", &tied_and_gapped, 10, BinningMode::kEquiWidth},
  };
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.name);
    GridModel::Options opts;
    opts.phi = shape.phi;
    opts.mode = shape.mode;
    const GridModel grid = GridModel::Build(*shape.data, opts);
    CubeCounter counter(grid);
    Rng rng(35);
    uint64_t counted = 0;
    for (size_t k = 1; k <= 10; ++k) {
      for (int trial = 0; trial < 16; ++trial) {
        const std::vector<DimRange> conditions =
            trial % 2 == 0 ? RandomConditions(grid, k, rng)
                           : ConditionsThroughRow(grid, k, rng);
        const size_t expected = CountByScan(grid, conditions);
        EXPECT_EQ(counter.Count(conditions), expected) << "k=" << k;
        ++counted;
        const std::vector<uint32_t> covered =
            counter.CoveredPoints(conditions);
        ASSERT_EQ(covered.size(), expected) << "k=" << k;
        EXPECT_TRUE(std::is_sorted(covered.begin(), covered.end()));
        for (const uint32_t row : covered) {
          EXPECT_TRUE(grid.Covers(row, conditions)) << "k=" << k;
        }
      }
    }
    // Every Count is one query; CoveredPoints is not counted.
    EXPECT_EQ(counter.stats().queries, counted);
  }

  // The shapes are what they claim to be.
  GridModel::Options opts;
  opts.phi = 10;
  opts.mode = BinningMode::kEquiWidth;
  const GridModel heavy_grid = GridModel::Build(heavy_tailed, opts);
  size_t tiny_ranges = 0;
  for (size_t dim = 0; dim < heavy_grid.num_dims(); ++dim) {
    for (uint32_t cell = 0; cell < heavy_grid.phi(); ++cell) {
      tiny_ranges += heavy_grid.RangeCardinality(dim, cell) < kRows / 256;
    }
  }
  EXPECT_GT(2 * tiny_ranges, heavy_grid.num_dims() * heavy_grid.phi());
  const GridModel gapped_grid = GridModel::Build(tied_and_gapped, opts);
  CubeCounter counter(gapped_grid);
  for (uint32_t cell = 1; cell < 9; ++cell) {
    EXPECT_EQ(gapped_grid.RangeCardinality(1, cell), 0u) << "cell " << cell;
    EXPECT_EQ(counter.Count({{1, cell}, {2, 0}}), 0u);
    EXPECT_TRUE(counter.CoveredPoints({{1, cell}, {2, 0}}).empty());
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
