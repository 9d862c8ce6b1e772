// Cross-algorithm consistency properties: every search implementation
// (DFS brute force — serial and parallel —, materialized candidate sets,
// and, on small spaces, the evolutionary and local searches) must agree on
// the optimum of random instances; and all-points coverage invariants hold
// end to end.

#include <tuple>

#include <gtest/gtest.h>

#include "core/brute_force.h"
#include "core/candidate_search.h"
#include "core/evolutionary_search.h"
#include "core/local_search.h"
#include "data/generators/synthetic.h"
#include "grid/cube_counter.h"
#include "testing/count_oracle.h"

namespace hido {
namespace {

// (n, d, k, phi, seed)
using Instance = std::tuple<size_t, size_t, size_t, size_t, uint64_t>;

class SearchConsistency : public ::testing::TestWithParam<Instance> {
 protected:
  void SetUp() override {
    const auto [n, d, k, phi, seed] = GetParam();
    k_ = k;
    GridModel::Options gopts;
    gopts.phi = phi;
    grid_ = GridModel::Build(GenerateUniform(n, d, seed), gopts);
    counter_ = std::make_unique<CubeCounter>(grid_);
    objective_ = std::make_unique<SparsityObjective>(*counter_);
  }

  size_t k_ = 0;
  GridModel grid_;
  std::unique_ptr<CubeCounter> counter_;
  std::unique_ptr<SparsityObjective> objective_;
};

TEST_P(SearchConsistency, AllExactAlgorithmsAgree) {
  BruteForceOptions bopts;
  bopts.target_dim = k_;
  bopts.num_projections = 5;
  const BruteForceResult serial = BruteForceSearch(*objective_, bopts);
  bopts.num_threads = 3;
  const BruteForceResult parallel = BruteForceSearch(*objective_, bopts);

  CandidateSearchOptions copts;
  copts.target_dim = k_;
  copts.num_projections = 5;
  const CandidateSearchResult materialized =
      CandidateSetSearch(*objective_, copts);
  ASSERT_TRUE(materialized.stats.completed);

  ASSERT_EQ(serial.best.size(), parallel.best.size());
  ASSERT_EQ(serial.best.size(), materialized.best.size());
  for (size_t i = 0; i < serial.best.size(); ++i) {
    EXPECT_NEAR(serial.best[i].sparsity, parallel.best[i].sparsity, 1e-12);
    EXPECT_NEAR(serial.best[i].sparsity, materialized.best[i].sparsity,
                1e-12);
    EXPECT_EQ(serial.best[i].count, parallel.best[i].count);
    EXPECT_EQ(serial.best[i].count, materialized.best[i].count);
  }
}

TEST_P(SearchConsistency, HeuristicsReachTheOptimumOnSmallSpaces) {
  BruteForceOptions bopts;
  bopts.target_dim = k_;
  bopts.num_projections = 1;
  const BruteForceResult brute = BruteForceSearch(*objective_, bopts);
  ASSERT_FALSE(brute.best.empty());
  const double optimum = brute.best.front().sparsity;

  EvolutionaryOptions eopts;
  eopts.target_dim = k_;
  eopts.num_projections = 1;
  eopts.population_size = 40;
  eopts.max_generations = 60;
  eopts.restarts = 3;
  eopts.seed = 9;
  const EvolutionResult evo = EvolutionarySearch(*objective_, eopts);
  ASSERT_FALSE(evo.best.empty());
  EXPECT_NEAR(evo.best.front().sparsity, optimum, 1e-9);

  LocalSearchOptions lopts;
  lopts.method = LocalSearchMethod::kHillClimbing;
  lopts.target_dim = k_;
  lopts.num_projections = 1;
  lopts.max_evaluations = 8000;
  lopts.seed = 9;
  const LocalSearchResult hill = LocalSearch(*objective_, lopts);
  ASSERT_FALSE(hill.best.empty());
  EXPECT_NEAR(hill.best.front().sparsity, optimum, 1e-9);
}

TEST_P(SearchConsistency, ReportedCountsAreTruthful) {
  BruteForceOptions bopts;
  bopts.target_dim = k_;
  bopts.num_projections = 8;
  const BruteForceResult result = BruteForceSearch(*objective_, bopts);
  for (const ScoredProjection& s : result.best) {
    // Recount through an independent path.
    const size_t count = CountByScan(grid_, s.projection.Conditions());
    EXPECT_EQ(count, s.count);
    EXPECT_NEAR(s.sparsity, objective_->model().Coefficient(count, k_),
                1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, SearchConsistency,
    ::testing::Values(Instance{150, 5, 2, 3, 1}, Instance{300, 6, 2, 4, 2},
                      Instance{200, 7, 3, 3, 3}, Instance{400, 5, 3, 4, 4},
                      Instance{250, 8, 2, 5, 5}, Instance{100, 6, 4, 2, 6}),
    [](const ::testing::TestParamInfo<Instance>& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_d" +
             std::to_string(std::get<1>(info.param)) + "_k" +
             std::to_string(std::get<2>(info.param)) + "_phi" +
             std::to_string(std::get<3>(info.param)) + "_s" +
             std::to_string(std::get<4>(info.param));
    });

}  // namespace
}  // namespace hido
