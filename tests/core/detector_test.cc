#include "core/detector.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "data/generators/synthetic.h"
#include "eval/metrics.h"

namespace hido {
namespace {

TEST(DetectorTest, DefaultsProduceAReport) {
  SubspaceOutlierConfig config;
  config.num_points = 400;
  config.num_dims = 15;
  config.seed = 1;
  const GeneratedDataset g = GenerateSubspaceOutliers(config);
  const OutlierDetector detector;
  const DetectionResult result = detector.Detect(g.data);
  EXPECT_GT(result.phi, 0u);
  EXPECT_GT(result.target_dim, 0u);
  EXPECT_LE(result.report.projections.size(), 20u);
  EXPECT_GT(result.seconds, 0.0);
  EXPECT_EQ(result.grid.num_points(), 400u);
}

TEST(DetectorTest, RecoversPlantedOutliers) {
  SubspaceOutlierConfig config;
  config.num_points = 600;
  config.num_dims = 16;
  config.num_groups = 5;
  config.num_outliers = 6;
  config.outlier_subspace_dims = 2;
  config.seed = 7;
  const GeneratedDataset g = GenerateSubspaceOutliers(config);

  DetectorConfig dconfig;
  dconfig.target_dim = 2;
  dconfig.phi = 5;  // aligned with the generator's 5 joint modes
  dconfig.num_projections = 25;
  dconfig.evolution.population_size = 80;
  dconfig.evolution.max_generations = 40;
  dconfig.evolution.restarts = 8;
  dconfig.evolution.mutation.p1 = 0.5;
  dconfig.evolution.mutation.p2 = 0.5;
  dconfig.seed = 3;
  const OutlierDetector detector(dconfig);
  const DetectionResult result = detector.Detect(g.data);

  std::vector<size_t> flagged;
  for (const OutlierRecord& o : result.report.outliers) {
    flagged.push_back(o.row);
  }
  // The planted anomalies should be strongly over-represented.
  const double recall = RecallOfPlanted(flagged, g.outlier_rows);
  EXPECT_GE(recall, 0.5) << "flagged " << flagged.size() << " rows";
}

TEST(DetectorTest, BruteForceAlgorithmOnSmallData) {
  SubspaceOutlierConfig config;
  config.num_points = 200;
  config.num_dims = 8;
  config.seed = 9;
  const GeneratedDataset g = GenerateSubspaceOutliers(config);

  DetectorConfig dconfig;
  dconfig.algorithm = SearchAlgorithm::kBruteForce;
  dconfig.target_dim = 2;
  dconfig.phi = 5;
  const OutlierDetector detector(dconfig);
  const DetectionResult result = detector.Detect(g.data);
  EXPECT_EQ(result.algorithm, SearchAlgorithm::kBruteForce);
  EXPECT_TRUE(result.brute_force_stats.completed);
  EXPECT_GT(result.brute_force_stats.cubes_evaluated, 0u);
  EXPECT_FALSE(result.report.projections.empty());
}

TEST(DetectorTest, BruteForceAndEvolutionAgreeOnOptimum) {
  const Dataset data = GenerateUniform(300, 6, 11);
  DetectorConfig dconfig;
  dconfig.target_dim = 2;
  dconfig.phi = 4;
  dconfig.num_projections = 1;
  dconfig.evolution.population_size = 60;
  dconfig.evolution.max_generations = 80;
  dconfig.seed = 5;

  dconfig.algorithm = SearchAlgorithm::kBruteForce;
  const DetectionResult brute = OutlierDetector(dconfig).Detect(data);
  dconfig.algorithm = SearchAlgorithm::kEvolutionary;
  const DetectionResult evo = OutlierDetector(dconfig).Detect(data);

  ASSERT_FALSE(brute.report.projections.empty());
  ASSERT_FALSE(evo.report.projections.empty());
  EXPECT_NEAR(evo.report.projections[0].sparsity,
              brute.report.projections[0].sparsity, 1e-9);
}

TEST(DetectorTest, AutoParametersFollowAdvisor) {
  const Dataset data = GenerateUniform(1000, 12, 13);
  const OutlierDetector detector;  // phi and k automatic
  const DetectionResult result = detector.Detect(data);
  EXPECT_EQ(result.phi, 10u);       // 1000/50 = 20 -> capped at 10
  EXPECT_EQ(result.target_dim, 2u); // log10(1000/9+1) ~ 2.05 -> 2
}

TEST(DetectorTest, ExplicitParametersOverrideAdvisor) {
  const Dataset data = GenerateUniform(500, 10, 15);
  DetectorConfig dconfig;
  dconfig.phi = 4;
  dconfig.target_dim = 3;
  const DetectionResult result = OutlierDetector(dconfig).Detect(data);
  EXPECT_EQ(result.phi, 4u);
  EXPECT_EQ(result.target_dim, 3u);
}

TEST(DetectorTest, WorksWithMissingValues) {
  SubspaceOutlierConfig config;
  config.num_points = 300;
  config.num_dims = 10;
  config.missing_fraction = 0.05;
  config.seed = 17;
  const GeneratedDataset g = GenerateSubspaceOutliers(config);
  ASSERT_TRUE(g.data.HasMissing());
  const OutlierDetector detector;
  const DetectionResult result = detector.Detect(g.data);
  EXPECT_FALSE(result.report.projections.empty());
}

TEST(DetectorTest, PreCancelledTokenYieldsIncompleteResult) {
  const Dataset data = GenerateUniform(300, 8, 23);
  StopToken token;
  token.RequestCancel();
  DetectorConfig dconfig;
  dconfig.target_dim = 2;
  dconfig.phi = 5;
  dconfig.seed = 8;
  dconfig.stop = &token;
  const DetectionResult result = OutlierDetector(dconfig).Detect(data);
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.stop_cause, StopCause::kCancelled);
}

TEST(DetectorTest, NestedSearchStopIsOverwrittenByConfigStop) {
  // `DetectorConfig::stop` is the only stop: a token left in the nested
  // evolutionary options, even a fired one, is overwritten when the
  // config's is null (the brute force has no nested options to hold one).
  const Dataset data = GenerateUniform(300, 8, 23);
  StopToken cancelled;
  cancelled.RequestCancel();
  DetectorConfig dconfig;
  dconfig.target_dim = 2;
  dconfig.phi = 5;
  dconfig.seed = 8;
  dconfig.evolution.stop = &cancelled;
  for (const SearchAlgorithm algorithm :
       {SearchAlgorithm::kEvolutionary, SearchAlgorithm::kBruteForce}) {
    dconfig.algorithm = algorithm;
    const DetectionResult result = OutlierDetector(dconfig).Detect(data);
    EXPECT_TRUE(result.completed);
    EXPECT_EQ(result.stop_cause, StopCause::kNone);
    EXPECT_FALSE(result.report.projections.empty());
  }
}

TEST(DetectorTest, SearchThreadsIsTheConfigWidth) {
  DetectorConfig dconfig;
  EXPECT_EQ(SearchThreads(dconfig), 1u);
  dconfig.evolution.num_threads = 3;
  dconfig.num_threads = 4;
  EXPECT_EQ(SearchThreads(dconfig), 4u);
  dconfig.algorithm = SearchAlgorithm::kBruteForce;
  EXPECT_EQ(SearchThreads(dconfig), 4u);
  dconfig.num_threads = 0;
  EXPECT_EQ(SearchThreads(dconfig), HardwareThreads());
}

TEST(DetectorTest, ReportedOutliersActuallyCoverProjections) {
  const Dataset data = GenerateUniform(400, 8, 19);
  DetectorConfig dconfig;
  dconfig.target_dim = 2;
  dconfig.phi = 5;
  dconfig.seed = 8;
  const DetectionResult result = OutlierDetector(dconfig).Detect(data);
  for (const OutlierRecord& record : result.report.outliers) {
    for (size_t pid : record.projection_ids) {
      const Projection& p = result.report.projections[pid].projection;
      EXPECT_TRUE(result.grid.Covers(record.row, p.Conditions()));
    }
  }
}

}  // namespace
}  // namespace hido
