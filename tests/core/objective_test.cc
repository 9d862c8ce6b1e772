#include "core/objective.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/generators/synthetic.h"
#include "testing/count_oracle.h"
#include "testing/heavy_tail.h"

namespace hido {
namespace {

GridModel MakeGrid(const Dataset& data, size_t phi) {
  GridModel::Options opts;
  opts.phi = phi;
  return GridModel::Build(data, opts);
}

GridModel MakeGrid(size_t n, size_t d, size_t phi, uint64_t seed) {
  return MakeGrid(GenerateUniform(n, d, seed), phi);
}

std::vector<DimRange> RandomConditions(const GridModel& grid, size_t k,
                                       Rng& rng) {
  std::vector<DimRange> conditions;
  std::vector<size_t> dims;
  rng.SampleWithoutReplacement(grid.num_dims(), k, &dims);
  for (size_t d : dims) {
    conditions.push_back({static_cast<uint32_t>(d),
                          static_cast<uint32_t>(rng.UniformIndex(grid.phi()))});
  }
  return conditions;
}

TEST(SparsityObjectiveTest, EvaluateMatchesManualComputation) {
  const Dataset data = GenerateUniform(500, 4, 1);
  const GridModel grid = MakeGrid(data, 5);
  SparsityObjective objective(grid);
  Projection p(4);
  p.Specify(0, 1);
  p.Specify(2, 3);
  const CubeEvaluation eval = objective.Evaluate(p);
  const size_t count = CountByScan(data, grid, p.Conditions());
  EXPECT_EQ(eval.count, count);
  EXPECT_NEAR(eval.sparsity, objective.model().Coefficient(count, 2), 1e-12);
}

TEST(SparsityObjectiveTest, CountsEvaluations) {
  const GridModel grid = MakeGrid(500, 4, 5, 1);
  SparsityObjective objective(grid);
  Projection p(4);
  p.Specify(0, 0);
  EXPECT_EQ(objective.num_evaluations(), 0u);
  objective.Evaluate(p);
  objective.Evaluate(p);
  EXPECT_EQ(objective.num_evaluations(), 2u);
}

// Sparsity() is the formula EvaluateConditions scores with, under both
// expectation models, and it counts no evaluation.
TEST(SparsityObjectiveTest, SparsityIsTheFormulaEvaluationsUse) {
  const GridModel grid = MakeGrid(700, 5, 4, 3);
  Rng rng(5);
  for (const ExpectationModel model :
       {ExpectationModel::kUniform, ExpectationModel::kEmpiricalMarginals}) {
    SparsityObjective objective(grid, model);
    for (size_t k = 1; k <= 4; ++k) {
      const std::vector<DimRange> conditions =
          RandomConditions(grid, k, rng);
      const CubeEvaluation eval = objective.EvaluateConditions(conditions);
      const uint64_t evaluations = objective.num_evaluations();
      double probability = 1.0;
      for (const DimRange& c : conditions) {
        probability *= grid.RangeFraction(c.dim, c.cell);
      }
      EXPECT_EQ(objective.Sparsity(eval.count, k, probability),
                eval.sparsity);
      EXPECT_EQ(objective.num_evaluations(), evaluations);
    }
  }
}

TEST(SparsityObjectiveTest, UniformModeOnEquiDepthDataNearZeroFor1D) {
  // Equi-depth 1-dimensional ranges hold ~N/phi points, so each 1-cube's
  // sparsity coefficient is ~0 under the uniform model.
  const GridModel grid = MakeGrid(2000, 3, 10, 3);
  SparsityObjective objective(grid);
  for (uint32_t cell = 0; cell < 10; ++cell) {
    Projection p(3);
    p.Specify(0, cell);
    EXPECT_NEAR(objective.Evaluate(p).sparsity, 0.0, 0.5) << "cell " << cell;
  }
}

TEST(SparsityObjectiveTest, EmpiricalModeCorrectsSkewedMarginals) {
  // A column where 80% of values are identical: equi-depth degenerates, the
  // big cell holds far more than N/phi. Uniform mode calls the big cell
  // dense and the dead cells empty; empirical mode scores every cell ~0
  // because it uses actual marginals.
  Dataset ds(1);
  for (int i = 0; i < 800; ++i) ds.AppendRow({1.0});
  for (int i = 0; i < 200; ++i) {
    ds.AppendRow({2.0 + static_cast<double>(i) / 200.0});
  }
  GridModel::Options gopts;
  gopts.phi = 5;
  const GridModel grid = GridModel::Build(ds, gopts);

  SparsityObjective uniform(grid, ExpectationModel::kUniform);
  SparsityObjective empirical(grid, ExpectationModel::kEmpiricalMarginals);

  const uint32_t big_cell = grid.Cell(0, 0);  // the 80% clump
  Projection p(1);
  p.Specify(0, big_cell);
  EXPECT_GT(uniform.Evaluate(p).sparsity, 3.0);      // "dense" artifact
  EXPECT_NEAR(empirical.Evaluate(p).sparsity, 0.0, 1e-6);
}

TEST(SparsityObjectiveDeathTest, EmptyProjectionAborts) {
  const GridModel grid = MakeGrid(500, 4, 5, 1);
  SparsityObjective objective(grid);
  const Projection p(4);
  EXPECT_DEATH(objective.Evaluate(p), "empty");
}

// A 1-cube's count is its range's cardinality and its points are the
// range's members.
TEST(SparsityObjectiveTest, SingleConditionMatchesPostingList) {
  const GridModel grid = MakeGrid(500, 3, 5, 1);
  SparsityObjective objective(grid);
  for (uint32_t cell = 0; cell < 5; ++cell) {
    EXPECT_EQ(objective.EvaluateConditions({{0, cell}}).count,
              grid.RangeCardinality(0, cell));
    EXPECT_EQ(grid.CoveredPoints({{0, cell}}),
              grid.RangeBits(0, cell).ToIndices());
  }
}

TEST(SparsityObjectiveTest, ConditionOrderDoesNotMatter) {
  const GridModel grid = MakeGrid(400, 4, 3, 5);
  SparsityObjective objective(grid);
  const std::vector<DimRange> a = {{0, 1}, {2, 0}, {3, 2}};
  const std::vector<DimRange> b = {{3, 2}, {0, 1}, {2, 0}};
  EXPECT_EQ(objective.EvaluateConditions(a).count,
            objective.EvaluateConditions(b).count);
}

TEST(SparsityObjectiveTest, FullConjunctionOfOnePointCell) {
  // A cube conditioned on every dimension of a single point contains
  // at least that point.
  const GridModel grid = MakeGrid(100, 3, 4, 13);
  SparsityObjective objective(grid);
  std::vector<DimRange> conditions;
  for (size_t d = 0; d < 3; ++d) {
    conditions.push_back({static_cast<uint32_t>(d), grid.Cell(42, d)});
  }
  EXPECT_GE(objective.EvaluateConditions(conditions).count, 1u);
  const std::vector<uint32_t> covered = grid.CoveredPoints(conditions);
  EXPECT_NE(std::find(covered.begin(), covered.end(), 42u), covered.end());
}

// Conditions through one row's cells on k random dimensions: the cube
// holds at least that row, so high-k cubes are not all empty.
std::vector<DimRange> ConditionsThroughRow(const GridModel& grid, size_t k,
                                           Rng& rng) {
  const size_t row = rng.UniformIndex(grid.num_points());
  std::vector<DimRange> conditions;
  std::vector<size_t> dims;
  rng.SampleWithoutReplacement(grid.num_dims(), k, &dims);
  for (size_t d : dims) {
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

// The objective's count and GridModel::CoveredPoints against the row-scan
// oracle for the stored 1-cube cardinality, every k the fused kernel
// unrolls (2..8) and the runtime-k loop beyond (9, 10). The grids are the
// shapes with the sparsest ranges: heavy-tailed equi-width ranges (most
// under N/256 rows), phi = 64, a heavily tied column and empty ranges;
// phi = 2 keeps 10-cubes dense. 3000 rows leave a ragged last word.
TEST(SparsityObjectiveTest, CountsMatchOracleUpToTenConditions) {
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
    SparsityObjective objective(grid);
    Rng rng(35);
    uint64_t counted = 0;
    for (size_t k = 1; k <= 10; ++k) {
      for (int trial = 0; trial < 16; ++trial) {
        const std::vector<DimRange> conditions =
            trial % 2 == 0 ? RandomConditions(grid, k, rng)
                           : ConditionsThroughRow(grid, k, rng);
        const size_t expected = CountByScan(*shape.data, grid, conditions);
        EXPECT_EQ(objective.EvaluateConditions(conditions).count, expected)
            << "k=" << k;
        ++counted;
        const std::vector<uint32_t> covered = grid.CoveredPoints(conditions);
        ASSERT_EQ(covered.size(), expected) << "k=" << k;
        EXPECT_TRUE(std::is_sorted(covered.begin(), covered.end()));
        for (const uint32_t row : covered) {
          EXPECT_TRUE(grid.Covers(row, conditions)) << "k=" << k;
        }
      }
    }
    EXPECT_EQ(objective.num_evaluations(), counted);
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
  SparsityObjective objective(gapped_grid);
  for (uint32_t cell = 1; cell < 9; ++cell) {
    EXPECT_EQ(gapped_grid.RangeCardinality(1, cell), 0u) << "cell " << cell;
    EXPECT_EQ(objective.EvaluateConditions({{1, cell}, {2, 0}}).count, 0u);
    EXPECT_TRUE(gapped_grid.CoveredPoints({{1, cell}, {2, 0}}).empty());
  }
}

// The bounded evaluation against the full one, on a grid whose counts span
// at least three 128-word chunks (30 000 rows are 469 words): for bounds
// at, just above and just below a cube's own sparsity, at the sparsities
// of nearby counts, at or below an empty cube's and at +infinity, it
// returns the exact evaluation exactly when that is below the bound, and
// counts one evaluation every time.
TEST(SparsityObjectiveTest, BoundedEvaluationIsExactBelowItsBound) {
  constexpr size_t kRows = 30000;
  const Dataset uniform = GenerateUniform(kRows, 8, 41);
  const Dataset tied_and_gapped = TiedAndGappedColumns(kRows, 8, 43);
  const double inf = std::numeric_limits<double>::infinity();
  for (const Dataset* data : {&uniform, &tied_and_gapped}) {
    const GridModel grid = MakeGrid(*data, 3);
    ASSERT_GE(grid.RangeBits(0, 0).num_words(), 3 * 128u);
    for (const ExpectationModel model :
         {ExpectationModel::kUniform, ExpectationModel::kEmpiricalMarginals}) {
      SparsityObjective objective(grid, model);
      Rng rng(47);
      size_t below = 0;
      size_t not_below = 0;
      for (int trial = 0; trial < 60; ++trial) {
        const size_t k = 2 + rng.UniformIndex(5);
        const std::vector<DimRange> conditions =
            trial % 2 == 0 ? RandomConditions(grid, k, rng)
                           : ConditionsThroughRow(grid, k, rng);
        const CubeEvaluation exact = objective.EvaluateConditions(conditions);
        double probability = 1.0;
        for (const DimRange& c : conditions) {
          probability *= grid.RangeFraction(c.dim, c.cell);
        }
        const auto sparsity_of = [&](size_t count) {
          return objective.Sparsity(count, k, probability);
        };
        std::vector<double> bounds = {
            exact.sparsity,
            std::nextafter(exact.sparsity, inf),
            std::nextafter(exact.sparsity, -inf),
            sparsity_of(exact.count + 1),
            sparsity_of(exact.count / 2),
            sparsity_of(0),
            sparsity_of(0) - 1.0,
            inf};
        if (exact.count > 0) bounds.push_back(sparsity_of(exact.count - 1));
        for (const double bound : bounds) {
          const uint64_t evaluations = objective.num_evaluations();
          const std::optional<CubeEvaluation> bounded =
              objective.EvaluateConditionsBelow(conditions, bound);
          EXPECT_EQ(objective.num_evaluations(), evaluations + 1);
          if (exact.sparsity < bound) {
            ++below;
            ASSERT_TRUE(bounded.has_value())
                << "k=" << k << " count=" << exact.count << " bound=" << bound;
            EXPECT_EQ(bounded->count, exact.count);
            EXPECT_EQ(bounded->sparsity, exact.sparsity);
          } else {
            ++not_below;
            EXPECT_FALSE(bounded.has_value())
                << "k=" << k << " count=" << exact.count << " bound=" << bound;
          }
        }
      }
      // Both answers are exercised.
      EXPECT_GT(below, 100u);
      EXPECT_GT(not_below, 100u);
    }
  }
}

// The uniform model's per-k moments give SparsityModel::Coefficient's
// score bit for bit, for every k up to d; the empirical model gives
// CoefficientWithProbability's.
TEST(SparsityObjectiveTest, SparsityIsSparsityModelBitForBit) {
  for (const size_t phi : {2u, 3u, 7u, 64u}) {
    const GridModel grid = MakeGrid(1000, 12, phi, 49);
    const SparsityObjective uniform(grid, ExpectationModel::kUniform);
    const SparsityObjective empirical(grid,
                                      ExpectationModel::kEmpiricalMarginals);
    const size_t n = grid.num_points();
    for (size_t k = 1; k <= grid.num_dims(); ++k) {
      for (const size_t count :
           {size_t{0}, size_t{1}, size_t{2}, size_t{7}, n / phi, n / 2,
            n - 1, n}) {
        EXPECT_EQ(uniform.Sparsity(count, k, 0.25),
                  uniform.model().Coefficient(count, k))
            << "phi=" << phi << " k=" << k << " count=" << count;
        for (const double probability : {1e-9, 0.01, 0.5, 0.99}) {
          EXPECT_EQ(empirical.Sparsity(count, k, probability),
                    empirical.model().CoefficientWithProbability(
                        count, probability));
        }
      }
    }
  }
}

TEST(SparsityObjectiveDeathTest, EmptyConditionsAbort) {
  const GridModel grid = MakeGrid(10, 2, 2, 15);
  SparsityObjective objective(grid);
  EXPECT_DEATH(objective.EvaluateConditions({}), "empty");
}

// Property: counting distributes over the grid — per-dimension totals of
// 2-cubes over all cells of the second dim equal the 1-cube count.
TEST(SparsityObjectiveTest, MarginalizationProperty) {
  const GridModel grid = MakeGrid(800, 4, 5, 17);
  SparsityObjective objective(grid);
  for (uint32_t c0 = 0; c0 < 5; ++c0) {
    size_t total = 0;
    for (uint32_t c1 = 0; c1 < 5; ++c1) {
      total += objective.EvaluateConditions({{0, c0}, {1, c1}}).count;
    }
    EXPECT_EQ(total, objective.EvaluateConditions({{0, c0}}).count);
  }
}

}  // namespace
}  // namespace hido
