#include "core/scoring.h"

#include <set>

#include <gtest/gtest.h>

#include "data/generators/synthetic.h"
#include "grid/sparsity.h"

namespace hido {
namespace {

TEST(ScoringTest, UncoveredPointsScoreZero) {
  const Dataset ds = GenerateUniform(100, 4, 1);
  GridModel::Options gopts;
  gopts.phi = 4;
  const GridModel grid = GridModel::Build(ds, gopts);
  const std::vector<PointScore> scores = ScoreAllPoints(grid, {});
  ASSERT_EQ(scores.size(), 100u);
  for (const PointScore& s : scores) {
    EXPECT_EQ(s.sparsity_score, 0.0);
    EXPECT_EQ(s.covering_projections, 0u);
  }
}

TEST(ScoringTest, CoveredPointsGetBestSparsityAndCount) {
  Dataset ds(2);
  for (int i = 0; i < 30; ++i) ds.AppendRow({0.1, 0.1});
  ds.AppendRow({0.9, 0.9});  // row 30
  GridModel::Options gopts;
  gopts.phi = 2;
  gopts.mode = BinningMode::kEquiWidth;
  const GridModel grid = GridModel::Build(ds, gopts);

  std::vector<ScoredProjection> projections;
  // Two cubes both covering row 30 with different sparsities.
  for (double sparsity : {-2.0, -5.0}) {
    ScoredProjection s;
    s.projection = Projection(2);
    s.projection.Specify(0, 1);
    if (sparsity == -5.0) s.projection.Specify(1, 1);
    s.count = 1;
    s.sparsity = sparsity;
    projections.push_back(s);
  }
  const std::vector<PointScore> scores = ScoreAllPoints(grid, projections);
  EXPECT_DOUBLE_EQ(scores[30].sparsity_score, -5.0);
  EXPECT_EQ(scores[30].covering_projections, 2u);
  EXPECT_EQ(scores[0].covering_projections, 0u);
}

TEST(ScoringTest, RankRowsOrdersStrongestFirst) {
  std::vector<PointScore> scores(4);
  for (size_t i = 0; i < 4; ++i) scores[i].row = i;
  scores[1].sparsity_score = -3.0;
  scores[1].covering_projections = 1;
  scores[2].sparsity_score = -3.0;
  scores[2].covering_projections = 2;  // tie broken by more coverage
  scores[3].sparsity_score = -5.0;
  scores[3].covering_projections = 1;
  const std::vector<size_t> order = RankRows(scores);
  EXPECT_EQ(order, (std::vector<size_t>{3, 2, 1, 0}));
}

TEST(ScoringTest, PlantedAnomaliesRankFirst) {
  SubspaceOutlierConfig config;
  config.num_points = 500;
  config.num_dims = 12;
  config.num_groups = 3;
  config.num_outliers = 4;
  config.seed = 3;
  const GeneratedDataset g = GenerateSubspaceOutliers(config);
  GridModel::Options gopts;
  gopts.phi = 5;
  const GridModel grid = GridModel::Build(g.data, gopts);
  SparsityObjective objective(grid);
  const SparsityModel model(500, 5);

  // Build the planted cubes directly (perfect search).
  std::vector<ScoredProjection> projections;
  for (size_t o = 0; o < g.outlier_rows.size(); ++o) {
    const size_t row = g.outlier_rows[o];
    ScoredProjection s;
    s.projection = Projection(12);
    for (size_t d : g.outlier_dims[o]) {
      s.projection.Specify(d, grid.Cell(row, d));
    }
    s.count = objective.Evaluate(s.projection).count;
    s.sparsity = model.Coefficient(s.count, 2);
    projections.push_back(s);
  }
  const std::vector<size_t> order =
      RankRows(ScoreAllPoints(grid, projections));
  // The planted rows occupy the top ranks (up to permutation).
  std::set<size_t> top(order.begin(),
                       order.begin() + static_cast<ptrdiff_t>(
                                           g.outlier_rows.size()));
  for (size_t row : g.outlier_rows) {
    EXPECT_TRUE(top.contains(row)) << row;
  }
}

}  // namespace
}  // namespace hido
