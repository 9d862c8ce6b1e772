#include "ensemble/model.h"

#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/detector.h"
#include "core/scoring.h"
#include "data/generators/synthetic.h"
#include "ensemble/ensemble_detector.h"
#include "grid/cube_counter.h"
#include "grid/sparsity.h"
#include "obs/metrics.h"

namespace hido {
namespace ensemble {
namespace {

GeneratedDataset MakeData() {
  SubspaceOutlierConfig config;
  config.num_points = 300;
  config.num_dims = 10;
  config.num_groups = 2;
  config.num_outliers = 3;
  config.seed = 8;
  return GenerateSubspaceOutliers(config);
}

uint64_t PointsScored() {
  return obs::MetricsRegistry::Global()
      .GetCounter("ensemble.points_scored")
      .Value();
}

// The independent oracle for a single fit is the in-sample bulk scorer,
// which walks the grid's range bitmaps instead of quantizing a point:
// Model::Score of every training row must equal that row of
// ScoreAllPoints, bit for bit.
TEST(ModelTest, SingleFitScoresEveryTrainingRowLikeScoreAllPoints) {
  const GeneratedDataset g = MakeData();
  GridModel::Options gopts;
  gopts.phi = 5;
  const GridModel grid = GridModel::Build(g.data, gopts);
  CubeCounter counter(grid);
  const SparsityModel sparsity(g.data.num_rows(), 5);

  Model model;
  model.quantizer = grid.quantizer();
  model.num_points = grid.num_points();
  ModelMember& member = model.members.emplace_back();
  Rng rng(4);
  for (int trial = 0; trial < 10; ++trial) {
    ScoredProjection s;
    s.projection = Projection::Random(10, 2, 5, rng);
    s.count = counter.Count(s.projection.Conditions());
    s.sparsity = sparsity.Coefficient(s.count, 2);
    member.projections.push_back(s);
  }
  ASSERT_FALSE(model.is_ensemble());

  const std::vector<PointScore> all =
      ScoreAllPoints(grid, member.projections);
  size_t covered = 0;
  for (size_t row = 0; row < g.data.num_rows(); ++row) {
    const ModelScore score = model.Score(g.data.Row(row));
    EXPECT_EQ(score.score, all[row].sparsity_score) << row;
    EXPECT_EQ(score.covering_projections, all[row].covering_projections)
        << row;
    covered += score.covering_projections > 0 ? 1 : 0;
  }
  EXPECT_GT(covered, 0u);  // the oracle comparison is not vacuous
}

// For an ensemble the oracle is CombinePoint over each member's
// ScoreAllPoints row, under every combiner kind.
TEST(ModelTest, EnsembleScoresEqualCombinePointOverMemberRows) {
  const GeneratedDataset g = MakeData();
  EnsembleConfig config;
  config.base.phi = 5;
  config.base.target_dim = 2;
  config.base.num_projections = 6;
  config.base.evolution.population_size = 24;
  config.base.evolution.max_generations = 10;
  config.base.evolution.restarts = 1;
  config.base.seed = 3;
  config.ensemble.num_members = 3;
  config.ensemble.mix = {MemberKind::kGa, MemberKind::kRandomSubspace,
                         MemberKind::kAnneal};
  config.ensemble.subspace_evaluations = 2000;
  config.ensemble.local_evaluations = 2000;
  const EnsembleDetectionResult result =
      EnsembleDetector(config).Detect(g.data);
  Model model = Model::FromEnsemble(result, g.data);
  ASSERT_TRUE(model.is_ensemble());
  ASSERT_EQ(model.members.size(), 3u);

  std::vector<std::vector<PointScore>> member_rows;
  std::vector<double> scales;
  for (const EnsembleMemberResult& member : result.members) {
    member_rows.push_back(ScoreAllPoints(result.grid, member.projections));
    scales.push_back(member.score_scale);
  }
  for (const CombinerKind kind :
       {CombinerKind::kBreadthFirst, CombinerKind::kCumulativeSum,
        CombinerKind::kMax, CombinerKind::kMeanNormalized}) {
    model.combiner = kind;
    for (size_t row = 0; row < g.data.num_rows(); ++row) {
      std::vector<PointScore> row_scores;
      for (const std::vector<PointScore>& rows : member_rows) {
        row_scores.push_back(rows[row]);
      }
      const EnsemblePointScore expected =
          CombinePoint(kind, row_scores, scales);
      const ModelScore score = model.Score(g.data.Row(row));
      EXPECT_EQ(score.score, expected.score)
          << CombinerKindToString(kind) << " row " << row;
      EXPECT_EQ(score.covering_projections, expected.covering_projections)
          << CombinerKindToString(kind) << " row " << row;
    }
  }
}

TEST(ModelTest, FromDetectionIsOneMemberWithNoCombiner) {
  const GeneratedDataset g = MakeData();
  DetectorConfig config;
  config.phi = 5;
  config.target_dim = 2;
  config.num_projections = 8;
  config.seed = 3;
  const DetectionResult result = OutlierDetector(config).Detect(g.data);
  const Model model = Model::FromDetection(result, g.data);
  EXPECT_FALSE(model.is_ensemble());
  ASSERT_EQ(model.members.size(), 1u);
  EXPECT_EQ(model.num_projections(), result.report.projections.size());
  EXPECT_EQ(model.num_dims(), g.data.num_cols());
  EXPECT_EQ(model.num_points, g.data.num_rows());
  EXPECT_EQ(model.column_names.size(), g.data.num_cols());
}

TEST(ModelTest, MissingCoordinateNeverMatches) {
  const Dataset ds = GenerateUniform(100, 3, 2);
  GridModel::Options gopts;
  gopts.phi = 2;
  const GridModel grid = GridModel::Build(ds, gopts);
  Model model;
  model.quantizer = grid.quantizer();
  ScoredProjection s;
  s.projection = Projection(3);
  s.projection.Specify(1, 0);
  s.count = 1;
  s.sparsity = -3.0;
  model.members.emplace_back().projections = {s};

  std::vector<double> values = {0.5, 0.0, 0.5};  // cell 0 on dim 1
  EXPECT_EQ(model.Score(values).covering_projections, 1u);
  EXPECT_EQ(model.Score(values).score, -3.0);
  values[1] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(model.Score(values).covering_projections, 0u);
  EXPECT_EQ(model.Score(values).score, 0.0);
}

// ensemble.points_scored counts ensemble scores only.
TEST(ModelTest, OnlyEnsembleScoresCountPointsScored) {
  const Dataset ds = GenerateUniform(50, 2, 5);
  GridModel::Options gopts;
  gopts.phi = 2;
  Model model;
  model.quantizer = GridModel::Build(ds, gopts).quantizer();
  model.members.emplace_back();
  const std::vector<double> point = {0.5, 0.5};

  const uint64_t before = PointsScored();
  model.Score(point);
  EXPECT_EQ(PointsScored(), before);
  model.combiner = CombinerKind::kMax;
  model.Score(point);
  EXPECT_EQ(PointsScored(), before + 1);
}

TEST(ModelDeathTest, WrongWidthAborts) {
  const Dataset ds = GenerateUniform(10, 3, 3);
  GridModel::Options gopts;
  gopts.phi = 2;
  Model model;
  model.quantizer = GridModel::Build(ds, gopts).quantizer();
  model.members.emplace_back();
  EXPECT_DEATH(model.Score({0.5}), "coordinates");
}

}  // namespace
}  // namespace ensemble
}  // namespace hido
