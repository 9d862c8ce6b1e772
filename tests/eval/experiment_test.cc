#include "eval/experiment.h"

#include <cmath>

#include <gtest/gtest.h>

#include "data/generators/synthetic.h"

namespace hido {
namespace {

TEST(ExperimentTest, BruteForceRunReportsBasics) {
  const Dataset data = GenerateUniform(200, 5, 1);
  ExperimentParams params;
  params.phi = 4;
  params.target_dim = 2;
  params.num_projections = 5;
  const SearchRun run = RunBruteForceExperiment(data, params);
  EXPECT_TRUE(run.completed);
  EXPECT_EQ(run.best.size(), 5u);
  EXPECT_EQ(static_cast<double>(run.cubes_examined),
            BruteForceSearchSpace(5, 2, 4));
  EXPECT_LT(run.best_quality, 0.0);
  EXPECT_LE(run.best_quality, run.mean_quality);
  EXPECT_GE(run.seconds, 0.0);
}

TEST(ExperimentTest, MeanQualityIsMeanOfBest) {
  const Dataset data = GenerateUniform(300, 4, 2);
  ExperimentParams params;
  params.phi = 3;
  params.target_dim = 2;
  params.num_projections = 4;
  const SearchRun run = RunBruteForceExperiment(data, params);
  double sum = 0.0;
  for (const ScoredProjection& s : run.best) sum += s.sparsity;
  EXPECT_NEAR(run.mean_quality, sum / 4.0, 1e-12);
}

TEST(ExperimentTest, EvolutionaryRunMatchesBruteOnSmallSpace) {
  const Dataset data = GenerateUniform(300, 5, 3);
  ExperimentParams params;
  params.phi = 3;
  params.target_dim = 2;
  params.num_projections = 1;
  params.population_size = 60;
  params.max_generations = 60;
  params.restarts = 2;
  const SearchRun brute = RunBruteForceExperiment(data, params);
  const SearchRun evo =
      RunEvolutionaryExperiment(data, params, CrossoverKind::kOptimized);
  EXPECT_NEAR(evo.best_quality, brute.best_quality, 1e-9);
  EXPECT_GT(evo.cubes_examined, 0u);
}

TEST(ExperimentTest, BruteForceBudgetMarksIncomplete) {
  const Dataset data = GenerateUniform(2000, 30, 4);
  ExperimentParams params;
  params.phi = 10;
  params.target_dim = 4;
  params.num_projections = 5;
  params.brute_force_budget_seconds = 0.05;
  const SearchRun run = RunBruteForceExperiment(data, params);
  EXPECT_FALSE(run.completed);
}

}  // namespace
}  // namespace hido
