#include "grid/grid_model.h"

#include <limits>

#include <gtest/gtest.h>

#include "common/run_control.h"
#include "common/status.h"
#include "data/generators/synthetic.h"

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
      const PostingContainer& members = grid.Container(d, cell);
      EXPECT_EQ(members.cardinality(), grid.RangeCardinality(d, cell));
      EXPECT_EQ(members.ToIds().size(), members.cardinality());
      total += members.cardinality();
      // Id view agrees with membership tests and the cell assignment.
      for (uint32_t row : members.ToIds()) {
        EXPECT_TRUE(members.Contains(row));
        EXPECT_EQ(grid.Cell(row, d), cell);
      }
    }
    EXPECT_EQ(total, 333u);  // every point in exactly one range per dim
  }
}

TEST(GridModelTest, ContainerRepresentationFollowsThreshold) {
  const Dataset ds = GenerateUniform(256, 2, 17);
  // All-bitmap grid (threshold 0 means no range is "sparse enough").
  GridModel::Options dense_opts;
  dense_opts.phi = 4;
  dense_opts.array_threshold = 0;
  const GridModel dense = GridModel::Build(ds, dense_opts);
  // All-array grid: every range is below rows + 1.
  GridModel::Options sparse_opts;
  sparse_opts.phi = 4;
  sparse_opts.array_threshold = 257;
  const GridModel sparse = GridModel::Build(ds, sparse_opts);
  for (size_t d = 0; d < 2; ++d) {
    for (uint32_t cell = 0; cell < 4; ++cell) {
      EXPECT_EQ(dense.Container(d, cell).kind(),
                PostingContainer::Kind::kBitmap);
      EXPECT_EQ(sparse.Container(d, cell).kind(),
                PostingContainer::Kind::kArray);
      // Representation is an encoding choice: identical member sets.
      EXPECT_EQ(dense.Container(d, cell).ToIds(),
                sparse.Container(d, cell).ToIds());
    }
  }
  EXPECT_EQ(dense.array_threshold(), 0u);
  EXPECT_EQ(sparse.array_threshold(), 257u);
}

TEST(GridModelTest, AutoThresholdResolvesToRowsOver32) {
  const Dataset ds = GenerateUniform(320, 1, 19);
  GridModel::Options opts;
  opts.phi = 4;
  const GridModel grid = GridModel::Build(ds, opts);
  EXPECT_EQ(grid.array_threshold(), 10u);
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
  EXPECT_DEATH(grid.Container(0, 5), "cell");
}

}  // namespace
}  // namespace hido
