#include "core/local_search.h"

#include <gtest/gtest.h>

#include "common/run_control.h"
#include "core/brute_force.h"
#include "data/generators/synthetic.h"

namespace hido {
namespace {

struct Fixture {
  Fixture(const Dataset& data, size_t phi)
      : grid(GridModel::Build(data,
                              [&] {
                                GridModel::Options o;
                                o.phi = phi;
                                return o;
                              }())),
        objective(grid) {}
  GridModel grid;
  SparsityObjective objective;
};

class LocalSearchMethods
    : public ::testing::TestWithParam<LocalSearchMethod> {};

TEST_P(LocalSearchMethods, ProducesValidSortedResults) {
  Fixture f(GenerateUniform(400, 8, 1), 4);
  LocalSearchOptions opts;
  opts.method = GetParam();
  opts.target_dim = 2;
  opts.num_projections = 10;
  opts.max_evaluations = 5000;
  opts.seed = 3;
  const LocalSearchResult result = LocalSearch(f.objective, opts);
  EXPECT_FALSE(result.best.empty());
  EXPECT_LE(result.best.size(), 10u);
  EXPECT_LE(result.stats.evaluations, 5000u);
  for (size_t i = 0; i < result.best.size(); ++i) {
    EXPECT_EQ(result.best[i].projection.Dimensionality(), 2u);
    EXPECT_GE(result.best[i].count, 1u);
    if (i > 0) {
      EXPECT_LE(result.best[i - 1].sparsity, result.best[i].sparsity);
    }
  }
}

TEST_P(LocalSearchMethods, DeterministicPerSeed) {
  Fixture f(GenerateUniform(200, 6, 2), 4);
  LocalSearchOptions opts;
  opts.method = GetParam();
  opts.target_dim = 2;
  opts.num_projections = 5;
  opts.max_evaluations = 2000;
  opts.seed = 17;
  const LocalSearchResult a = LocalSearch(f.objective, opts);
  const LocalSearchResult b = LocalSearch(f.objective, opts);
  ASSERT_EQ(a.best.size(), b.best.size());
  for (size_t i = 0; i < a.best.size(); ++i) {
    EXPECT_EQ(a.best[i].projection, b.best[i].projection);
  }
  EXPECT_EQ(a.stats.evaluations, b.stats.evaluations);
}

TEST_P(LocalSearchMethods, FindsOptimumOnTinySpace) {
  // 4 dims x 3 cells, k=2: 54 cubes — any sane search with a 4000-eval
  // budget must find the global optimum.
  Fixture f(GenerateUniform(300, 4, 3), 3);
  BruteForceOptions bopts;
  bopts.target_dim = 2;
  bopts.num_projections = 1;
  const BruteForceResult brute = BruteForceSearch(f.objective, bopts);

  LocalSearchOptions opts;
  opts.method = GetParam();
  opts.target_dim = 2;
  opts.num_projections = 1;
  opts.max_evaluations = 4000;
  opts.seed = 5;
  const LocalSearchResult result = LocalSearch(f.objective, opts);
  ASSERT_FALSE(result.best.empty());
  EXPECT_NEAR(result.best.front().sparsity, brute.best.front().sparsity,
              1e-9);
}

// The token is polled before the first evaluation and every
// kStopPollStride evaluations after it, so a token that fires at its n-th
// poll ends the run after exactly (n - 1) strides, with what it found.
TEST_P(LocalSearchMethods, FiredTokenStopsWithinOnePollStride) {
  Fixture f(GenerateUniform(300, 6, 4), 4);
  LocalSearchOptions opts;
  opts.method = GetParam();
  opts.target_dim = 2;
  opts.max_evaluations = 100000;
  opts.seed = 21;
  constexpr uint64_t kStride = LocalSearchOptions::kStopPollStride;

  StopToken cancelled;
  cancelled.RequestCancel();
  opts.stop = &cancelled;
  const LocalSearchResult none = LocalSearch(f.objective, opts);
  EXPECT_FALSE(none.stats.completed);
  EXPECT_EQ(none.stats.evaluations, 0u);
  EXPECT_TRUE(none.best.empty());

  StopToken failpoint;
  failpoint.ArmFailpoint(3);
  opts.stop = &failpoint;
  const LocalSearchResult some = LocalSearch(f.objective, opts);
  EXPECT_FALSE(some.stats.completed);
  EXPECT_EQ(failpoint.cause(), StopCause::kFailpoint);
  EXPECT_EQ(failpoint.polls(), 3u);
  EXPECT_EQ(some.stats.evaluations, 2 * kStride);
  EXPECT_FALSE(some.best.empty());
}

// A token that never fires changes nothing: same cubes, same evaluations.
TEST_P(LocalSearchMethods, UnfiredTokenLeavesTheRunUnchanged) {
  Fixture f(GenerateUniform(300, 6, 4), 4);
  LocalSearchOptions opts;
  opts.method = GetParam();
  opts.target_dim = 2;
  opts.num_projections = 8;
  opts.max_evaluations = 3000;
  opts.seed = 23;
  const LocalSearchResult plain = LocalSearch(f.objective, opts);
  StopToken token;
  opts.stop = &token;
  const LocalSearchResult polled = LocalSearch(f.objective, opts);
  EXPECT_TRUE(polled.stats.completed);
  EXPECT_EQ(polled.stats.evaluations, plain.stats.evaluations);
  EXPECT_EQ(polled.stats.restarts, plain.stats.restarts);
  EXPECT_EQ(polled.stats.accepted_moves, plain.stats.accepted_moves);
  ASSERT_EQ(polled.best.size(), plain.best.size());
  for (size_t i = 0; i < plain.best.size(); ++i) {
    EXPECT_EQ(polled.best[i].projection, plain.best[i].projection);
    EXPECT_EQ(polled.best[i].count, plain.best[i].count);
  }
  EXPECT_EQ(token.polls(), (3000 + LocalSearchOptions::kStopPollStride - 1) /
                               LocalSearchOptions::kStopPollStride);
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, LocalSearchMethods,
    ::testing::Values(LocalSearchMethod::kRandomSearch,
                      LocalSearchMethod::kHillClimbing,
                      LocalSearchMethod::kSimulatedAnnealing),
    [](const ::testing::TestParamInfo<LocalSearchMethod>& info) {
      switch (info.param) {
        case LocalSearchMethod::kRandomSearch:
          return "RandomSearch";
        case LocalSearchMethod::kHillClimbing:
          return "HillClimbing";
        case LocalSearchMethod::kSimulatedAnnealing:
          return "SimulatedAnnealing";
      }
      return "Unknown";
    });

TEST(LocalSearchTest, HillClimbingRecordsRestarts) {
  Fixture f(GenerateUniform(200, 8, 4), 4);
  LocalSearchOptions opts;
  opts.method = LocalSearchMethod::kHillClimbing;
  opts.target_dim = 2;
  opts.max_evaluations = 3000;
  opts.stall_limit = 16;
  opts.seed = 7;
  const LocalSearchResult result = LocalSearch(f.objective, opts);
  EXPECT_GT(result.stats.restarts, 1u);
  EXPECT_GT(result.stats.accepted_moves, 0u);
}

TEST(LocalSearchTest, AnnealingAcceptsUphillEarly) {
  // With a high initial temperature the Metropolis rule accepts worse
  // moves; accepted moves should clearly exceed the count of strictly
  // improving moves a pure hill climber would take.
  Fixture f(GenerateUniform(300, 8, 4), 4);
  LocalSearchOptions opts;
  opts.target_dim = 2;
  opts.max_evaluations = 3000;
  opts.seed = 9;

  opts.method = LocalSearchMethod::kSimulatedAnnealing;
  opts.initial_temperature = 10.0;
  opts.cooling = 0.99999;
  const LocalSearchResult hot = LocalSearch(f.objective, opts);
  // At T=10 nearly every move is accepted.
  EXPECT_GT(hot.stats.accepted_moves, 3000u / 2);
}

TEST(LocalSearchTest, EmptyCubesExcludedByDefault) {
  // Very sparse data: most cubes are empty; results must still be
  // non-empty cubes only.
  Fixture f(GenerateUniform(30, 6, 5), 5);
  LocalSearchOptions opts;
  opts.method = LocalSearchMethod::kRandomSearch;
  opts.target_dim = 3;
  opts.max_evaluations = 3000;
  opts.seed = 11;
  const LocalSearchResult result = LocalSearch(f.objective, opts);
  for (const ScoredProjection& s : result.best) {
    EXPECT_GE(s.count, 1u);
  }
}

TEST(LocalSearchDeathTest, InvalidOptions) {
  Fixture f(GenerateUniform(50, 3, 12), 3);
  LocalSearchOptions opts;
  opts.target_dim = 9;
  EXPECT_DEATH(LocalSearch(f.objective, opts), "target_dim");
  opts.target_dim = 2;
  opts.cooling = 1.5;
  EXPECT_DEATH(LocalSearch(f.objective, opts), "cooling");
}

}  // namespace
}  // namespace hido
