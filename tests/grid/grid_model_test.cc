#include "grid/grid_model.h"

#include <limits>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/run_control.h"
#include "common/status.h"
#include "data/generators/synthetic.h"
#include "testing/count_oracle.h"

namespace hido {
namespace {

TEST(GridModelTest, BasicShape) {
  const Dataset ds = GenerateUniform(200, 4, 3);
  GridModel::Options opts;
  opts.phi = 5;
  const GridModel grid = GridModel::Build(ds, opts);
  EXPECT_EQ(grid.num_points(), 200u);
  EXPECT_EQ(grid.num_dims(), 4u);
  EXPECT_EQ(grid.phi(), 5u);
}

TEST(GridModelTest, CellsMatchQuantizer) {
  const Dataset ds = GenerateUniform(100, 2, 5);
  GridModel::Options opts;
  opts.phi = 4;
  const GridModel grid = GridModel::Build(ds, opts);
  for (size_t r = 0; r < 100; ++r) {
    for (size_t d = 0; d < 2; ++d) {
      EXPECT_EQ(grid.Cell(r, d),
                grid.quantizer().CellOf(d, ds.Get(r, d)));
    }
  }
}

TEST(GridModelTest, MembershipsPartitionThePoints) {
  const Dataset ds = GenerateUniform(333, 3, 7);
  GridModel::Options opts;
  opts.phi = 6;
  const GridModel grid = GridModel::Build(ds, opts);
  for (size_t d = 0; d < 3; ++d) {
    size_t total = 0;
    for (uint32_t cell = 0; cell < 6; ++cell) {
      const DynamicBitset& members = grid.RangeBits(d, cell);
      EXPECT_EQ(members.size(), 333u);
      EXPECT_EQ(members.Count(), grid.RangeCardinality(d, cell));
      total += members.Count();
      // The bitmap agrees with the cell assignment.
      for (uint32_t row : members.ToIndices()) {
        EXPECT_EQ(grid.Cell(row, d), cell);
      }
    }
    EXPECT_EQ(total, 333u);  // every point in exactly one range per dim
  }
}

// A grid at the phi cap builds, and its ranges partition the rows.
TEST(GridModelTest, BuildsAtThePhiCap) {
  const Dataset ds = GenerateUniform(600, 2, 17);
  GridModel::Options opts;
  opts.phi = GridModel::kMaxPhi;
  const GridModel grid = GridModel::Build(ds, opts);
  EXPECT_EQ(grid.phi(), GridModel::kMaxPhi);
  size_t total = 0;
  for (uint32_t cell = 0; cell < GridModel::kMaxPhi; ++cell) {
    total += grid.RangeCardinality(1, cell);
  }
  EXPECT_EQ(total, 600u);
}

TEST(GridModelTest, RangeFractionsSumToOne) {
  const Dataset ds = GenerateUniform(500, 2, 11);
  GridModel::Options opts;
  opts.phi = 10;
  const GridModel grid = GridModel::Build(ds, opts);
  for (size_t d = 0; d < 2; ++d) {
    double sum = 0.0;
    for (uint32_t cell = 0; cell < 10; ++cell) {
      sum += grid.RangeFraction(d, cell);
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(GridModelTest, MissingValuesGetMissingCell) {
  Dataset ds(2);
  ds.AppendRow({0.1, 0.5});
  ds.AppendRow({std::numeric_limits<double>::quiet_NaN(), 0.7});
  ds.AppendRow({0.9, 0.2});
  GridModel::Options opts;
  opts.phi = 2;
  const GridModel grid = GridModel::Build(ds, opts);
  EXPECT_EQ(grid.Cell(1, 0), GridModel::kMissingCell);
  EXPECT_NE(grid.Cell(1, 1), GridModel::kMissingCell);
  // Missing rows appear in no membership set of that dim.
  size_t total = 0;
  for (uint32_t cell = 0; cell < 2; ++cell) {
    total += grid.RangeCardinality(0, cell);
  }
  EXPECT_EQ(total, 2u);
}

TEST(GridModelTest, CoversChecksAllConditions) {
  Dataset ds(2);
  ds.AppendRow({0.1, 0.9});
  ds.AppendRow({0.9, 0.9});
  GridModel::Options opts;
  opts.phi = 2;
  const GridModel grid = GridModel::Build(ds, opts);
  const uint32_t c00 = grid.Cell(0, 0);
  const uint32_t c01 = grid.Cell(0, 1);
  EXPECT_TRUE(grid.Covers(0, {{0, c00}, {1, c01}}));
  EXPECT_FALSE(grid.Covers(1, {{0, c00}, {1, c01}}));
  EXPECT_TRUE(grid.Covers(1, {{1, c01}}));
}

TEST(GridModelTest, CoversNeverMatchesMissing) {
  Dataset ds(1);
  ds.AppendRow({std::numeric_limits<double>::quiet_NaN()});
  ds.AppendRow({0.5});
  GridModel::Options opts;
  opts.phi = 2;
  const GridModel grid = GridModel::Build(ds, opts);
  for (uint32_t cell = 0; cell < 2; ++cell) {
    EXPECT_FALSE(grid.Covers(0, {{0, cell}}));
  }
}

TEST(GridModelTest, CoveredPointsMatchCount) {
  const Dataset ds = GenerateUniform(600, 5, 9);
  GridModel::Options opts;
  opts.phi = 4;
  const GridModel grid = GridModel::Build(ds, opts);
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<DimRange> conditions;
    std::vector<size_t> dims;
    rng.SampleWithoutReplacement(grid.num_dims(), 2, &dims);
    for (size_t d : dims) {
      conditions.push_back(
          {static_cast<uint32_t>(d),
           static_cast<uint32_t>(rng.UniformIndex(grid.phi()))});
    }
    const std::vector<uint32_t> covered = grid.CoveredPoints(conditions);
    EXPECT_EQ(covered.size(), CountByScan(ds, grid, conditions));
    for (uint32_t row : covered) {
      EXPECT_TRUE(grid.Covers(row, conditions));
    }
  }
}

TEST(GridModelTest, StopTokenFailpointAbortsBuild) {
  const Dataset ds = GenerateUniform(500, 8, 7);
  GridModel::Options opts;
  opts.phi = 5;
  StopToken token;
  token.ArmFailpoint(3);  // entry poll + per-dimension polls; fires early
  const Result<GridModel> r =
      GridModel::Build(ds, opts, &token, /*num_threads=*/1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(token.cause(), StopCause::kFailpoint);
}

TEST(GridModelTest, PreCancelledTokenAbortsBeforeAnyWork) {
  const Dataset ds = GenerateUniform(50, 2, 7);
  GridModel::Options opts;
  opts.phi = 5;
  StopToken token;
  token.RequestCancel();
  const Result<GridModel> r =
      GridModel::Build(ds, opts, &token, /*num_threads=*/1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
}

TEST(GridModelTest, UnfiredStopTokenBuildMatchesLegacyBuild) {
  const Dataset ds = GenerateUniform(300, 5, 11);
  GridModel::Options opts;
  opts.phi = 4;
  const GridModel legacy = GridModel::Build(ds, opts);
  StopToken token;
  const Result<GridModel> r =
      GridModel::Build(ds, opts, &token, /*num_threads=*/1);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const GridModel& grid = r.value();
  ASSERT_EQ(grid.num_points(), legacy.num_points());
  ASSERT_EQ(grid.num_dims(), legacy.num_dims());
  for (size_t row = 0; row < grid.num_points(); ++row) {
    for (size_t dim = 0; dim < grid.num_dims(); ++dim) {
      ASSERT_EQ(grid.Cell(row, dim), legacy.Cell(row, dim))
          << "row " << row << " dim " << dim;
    }
  }
  EXPECT_FALSE(token.stop_requested());
}

TEST(GridModelDeathTest, BadCellAborts) {
  const Dataset ds = GenerateUniform(10, 1, 13);
  GridModel::Options opts;
  opts.phi = 2;
  const GridModel grid = GridModel::Build(ds, opts);
  EXPECT_DEATH(grid.RangeBits(0, 5), "cell");
}

TEST(GridModelDeathTest, CoveredPointsOfNoConditionsAborts) {
  GridModel::Options opts;
  opts.phi = 2;
  const GridModel grid = GridModel::Build(GenerateUniform(10, 2, 15), opts);
  EXPECT_DEATH(grid.CoveredPoints({}), "empty");
}

TEST(GridModelDeathTest, PhiAboveTheCapAborts) {
  const Dataset ds = GenerateUniform(10, 1, 13);
  GridModel::Options opts;
  opts.phi = GridModel::kMaxPhi + 1;
  EXPECT_DEATH(GridModel::Build(ds, opts), "cap");
}

}  // namespace
}  // namespace hido
