#include "core/postprocess.h"

#include <gtest/gtest.h>

#include "data/generators/synthetic.h"

namespace hido {
namespace {

TEST(PostprocessTest, CoveredPointsBecomeOutliers) {
  Dataset ds(2);
  for (int i = 0; i < 40; ++i) ds.AppendRow({0.1, 0.1});
  for (int i = 0; i < 40; ++i) ds.AppendRow({0.9, 0.9});
  ds.AppendRow({0.1, 0.9});  // row 80: the lonely combination
  GridModel::Options gopts;
  gopts.phi = 2;
  gopts.mode = BinningMode::kEquiWidth;
  const GridModel grid = GridModel::Build(ds, gopts);

  ScoredProjection sparse_cube;
  sparse_cube.projection = Projection(2);
  sparse_cube.projection.Specify(0, 0);
  sparse_cube.projection.Specify(1, 1);
  sparse_cube.count = 1;
  sparse_cube.sparsity = -4.0;

  const OutlierReport report = ExtractOutliers(grid, {sparse_cube});
  ASSERT_EQ(report.outliers.size(), 1u);
  EXPECT_EQ(report.outliers[0].row, 80u);
  EXPECT_EQ(report.outliers[0].projection_ids, (std::vector<size_t>{0}));
  EXPECT_DOUBLE_EQ(report.outliers[0].best_sparsity, -4.0);
}

TEST(PostprocessTest, PointCoveredByMultipleProjections) {
  Dataset ds(3);
  for (int i = 0; i < 30; ++i) ds.AppendRow({0.1, 0.1, 0.1});
  ds.AppendRow({0.9, 0.9, 0.9});  // row 30 alone in the high corner
  GridModel::Options gopts;
  gopts.phi = 2;
  gopts.mode = BinningMode::kEquiWidth;
  const GridModel grid = GridModel::Build(ds, gopts);

  std::vector<ScoredProjection> projections;
  for (size_t d = 0; d + 1 < 3; ++d) {
    ScoredProjection s;
    s.projection = Projection(3);
    s.projection.Specify(d, 1);
    s.projection.Specify(d + 1, 1);
    s.count = 1;
    s.sparsity = -2.0 - static_cast<double>(d);
    projections.push_back(s);
  }
  const OutlierReport report = ExtractOutliers(grid, projections);
  ASSERT_EQ(report.outliers.size(), 1u);
  const OutlierRecord& record = report.outliers[0];
  EXPECT_EQ(record.row, 30u);
  EXPECT_EQ(record.projection_ids.size(), 2u);
  EXPECT_DOUBLE_EQ(record.best_sparsity, -3.0);  // most negative of the two
}

TEST(PostprocessTest, OutliersSortedByStrength) {
  const Dataset ds = GenerateUniform(200, 4, 3);
  GridModel::Options gopts;
  gopts.phi = 4;
  const GridModel grid = GridModel::Build(ds, gopts);
  SparsityObjective objective(grid);

  // Two non-empty cubes with different sparsities.
  std::vector<ScoredProjection> projections;
  Rng rng(4);
  while (projections.size() < 3) {
    Projection p = Projection::Random(4, 2, 4, rng);
    const size_t count = objective.Evaluate(p).count;
    if (count == 0) continue;
    ScoredProjection s;
    s.projection = p;
    s.count = count;
    s.sparsity = -static_cast<double>(projections.size() + 1);
    projections.push_back(s);
  }
  const OutlierReport report = ExtractOutliers(grid, projections);
  for (size_t i = 1; i < report.outliers.size(); ++i) {
    EXPECT_LE(report.outliers[i - 1].best_sparsity,
              report.outliers[i].best_sparsity);
  }
}

TEST(PostprocessTest, EmptyProjectionListYieldsNoOutliers) {
  const Dataset ds = GenerateUniform(50, 3, 5);
  GridModel::Options gopts;
  gopts.phi = 3;
  const GridModel grid = GridModel::Build(ds, gopts);
  const OutlierReport report = ExtractOutliers(grid, {});
  EXPECT_TRUE(report.outliers.empty());
  EXPECT_TRUE(report.projections.empty());
}

TEST(PostprocessTest, ExplainOutlierMentionsColumnsAndRanges) {
  Dataset ds(2);
  ds.SetColumnName(0, "crime");
  ds.SetColumnName(1, "distance");
  for (int i = 0; i < 20; ++i) ds.AppendRow({0.1, 0.1});
  ds.AppendRow({0.95, 0.9});
  GridModel::Options gopts;
  gopts.phi = 2;
  gopts.mode = BinningMode::kEquiWidth;
  const GridModel grid = GridModel::Build(ds, gopts);

  ScoredProjection s;
  s.projection = Projection(2);
  s.projection.Specify(0, 1);
  s.projection.Specify(1, 1);
  s.count = 1;
  s.sparsity = -3.5;
  const OutlierReport report = ExtractOutliers(grid, {s});
  ASSERT_EQ(report.outliers.size(), 1u);
  const std::string text = ExplainOutlier(report, 0, grid, ds);
  EXPECT_NE(text.find("row 20"), std::string::npos);
  EXPECT_NE(text.find("crime"), std::string::npos);
  EXPECT_NE(text.find("distance"), std::string::npos);
  EXPECT_NE(text.find("-3.5"), std::string::npos);
}

TEST(PostprocessDeathTest, ExplainOutOfRangeAborts) {
  const Dataset ds = GenerateUniform(20, 2, 6);
  GridModel::Options gopts;
  gopts.phi = 2;
  const GridModel grid = GridModel::Build(ds, gopts);
  const OutlierReport report = ExtractOutliers(grid, {});
  EXPECT_DEATH(ExplainOutlier(report, 0, grid, ds), "outlier_index");
}

}  // namespace
}  // namespace hido
