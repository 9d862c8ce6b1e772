// Cross-algorithm consistency properties: every search implementation
// (DFS brute force — serial and parallel —, materialized candidate sets,
// and, on small spaces, the evolutionary and local searches) must agree on
// the optimum of random instances under both expectation models; and
// all-points coverage invariants hold end to end.
//
// The exact searches are a paper-fidelity differential: brute force (which
// scores its leaves on a carried prefix bitmap) and the bottom-up candidate
// sets (which score every cube through the objective) must report the same
// m cubes, counts and sparsity coefficients bit for bit, ties included.

#include <cmath>
#include <ostream>

#include <gtest/gtest.h>

#include "core/brute_force.h"
#include "core/candidate_search.h"
#include "core/evolutionary_search.h"
#include "core/local_search.h"
#include "data/generators/synthetic.h"
#include "testing/count_oracle.h"

namespace hido {
namespace {

// One random instance of the searches' consistency properties.
struct Instance {
  size_t n;
  size_t d;
  size_t k;
  size_t phi;
  uint64_t seed;
  ExpectationModel model;
};

// Printed as (n, d, k, phi, seed), with the model appended when it is not
// the uniform one.
void PrintTo(const Instance& instance, std::ostream* os) {
  *os << "(" << instance.n << ", " << instance.d << ", " << instance.k
      << ", " << instance.phi << ", " << instance.seed
      << (instance.model == ExpectationModel::kUniform ? ")" : ", empirical)");
}

// S(D) from its definition, without the objective: Equation 1 with
// f^k = phi^-k, or the product of the ranges' empirical fractions.
double SparsityByDefinition(const GridModel& grid,
                            const std::vector<DimRange>& conditions,
                            size_t count, ExpectationModel model) {
  const double n = static_cast<double>(grid.num_points());
  double p = 1.0;
  for (const DimRange& c : conditions) {
    p *= model == ExpectationModel::kUniform
             ? 1.0 / static_cast<double>(grid.phi())
             : static_cast<double>(grid.RangeCardinality(c.dim, c.cell)) / n;
  }
  return (static_cast<double>(count) - n * p) / std::sqrt(n * p * (1.0 - p));
}

class SearchConsistency : public ::testing::TestWithParam<Instance> {
 protected:
  void SetUp() override {
    const Instance& instance = GetParam();
    k_ = instance.k;
    model_ = instance.model;
    GridModel::Options gopts;
    gopts.phi = instance.phi;
    data_ = GenerateUniform(instance.n, instance.d, instance.seed);
    grid_ = GridModel::Build(data_, gopts);
    objective_ = std::make_unique<SparsityObjective>(grid_, model_);
  }

  EvolutionaryOptions GaOptions(size_t m) const {
    EvolutionaryOptions eopts;
    eopts.target_dim = k_;
    eopts.num_projections = m;
    eopts.population_size = 40;
    eopts.max_generations = 60;
    eopts.restarts = 3;
    eopts.seed = 9;
    return eopts;
  }

  size_t k_ = 0;
  ExpectationModel model_ = ExpectationModel::kUniform;
  Dataset data_;
  GridModel grid_;
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

  ASSERT_EQ(serial.best.size(), 5u);
  ASSERT_EQ(serial.best.size(), parallel.best.size());
  ASSERT_EQ(serial.best.size(), materialized.best.size());
  for (size_t i = 0; i < serial.best.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(serial.best[i].projection, parallel.best[i].projection);
    EXPECT_EQ(serial.best[i].projection, materialized.best[i].projection);
    EXPECT_EQ(serial.best[i].count, parallel.best[i].count);
    EXPECT_EQ(serial.best[i].count, materialized.best[i].count);
    // Bit for bit: both paths compute S(D) from the same inputs.
    EXPECT_EQ(serial.best[i].sparsity, parallel.best[i].sparsity);
    EXPECT_EQ(serial.best[i].sparsity, materialized.best[i].sparsity);
  }
}

TEST_P(SearchConsistency, HeuristicsReachTheOptimumOnSmallSpaces) {
  BruteForceOptions bopts;
  bopts.target_dim = k_;
  bopts.num_projections = 1;
  const BruteForceResult brute = BruteForceSearch(*objective_, bopts);
  ASSERT_FALSE(brute.best.empty());
  const double optimum = brute.best.front().sparsity;

  const EvolutionResult evo = EvolutionarySearch(*objective_, GaOptions(1));
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

// The GA's best-m is compared with the exact one on sparsities only: under
// ties, which cubes are reported is arbitrary. No heuristic can beat the
// exact search at any rank.
TEST_P(SearchConsistency, GaBestSetIsNoSparserThanExactAtAnyRank) {
  constexpr size_t kM = 5;
  BruteForceOptions bopts;
  bopts.target_dim = k_;
  bopts.num_projections = kM;
  const BruteForceResult brute = BruteForceSearch(*objective_, bopts);
  const EvolutionResult evo =
      EvolutionarySearch(*objective_, GaOptions(kM));
  ASSERT_EQ(brute.best.size(), kM);
  ASSERT_LE(evo.best.size(), kM);
  for (size_t i = 0; i < evo.best.size(); ++i) {
    EXPECT_GE(evo.best[i].sparsity, brute.best[i].sparsity) << "rank " << i;
  }
}

TEST_P(SearchConsistency, ReportedCountsAreTruthful) {
  BruteForceOptions bopts;
  bopts.target_dim = k_;
  bopts.num_projections = 8;
  const BruteForceResult result = BruteForceSearch(*objective_, bopts);
  for (const ScoredProjection& s : result.best) {
    // Recount and rescore through an independent path.
    const std::vector<DimRange> conditions = s.projection.Conditions();
    const size_t count = CountByScan(data_, grid_, conditions);
    EXPECT_EQ(count, s.count);
    EXPECT_NEAR(s.sparsity,
                SparsityByDefinition(grid_, conditions, count, model_),
                1e-9);
  }
}

// The tie-heavy instance: 100 points in the 64 cells of each 3-subspace,
// so hundreds of 3-cubes hold one point and share the floor sparsity, and
// the best 5 are decided by tie order alone. Equal equi-depth ranges tie
// the empirical model's cubes exactly like the uniform model's.
TEST(SearchConsistencyTest, TieHeavyInstanceTiesAtTheCut) {
  GridModel::Options gopts;
  gopts.phi = 4;
  const GridModel grid = GridModel::Build(GenerateUniform(100, 6, 7), gopts);
  for (const ExpectationModel model :
       {ExpectationModel::kUniform, ExpectationModel::kEmpiricalMarginals}) {
    SparsityObjective objective(grid, model);
    BruteForceOptions bopts;
    bopts.target_dim = 3;
    bopts.num_projections = 200;
    const BruteForceResult result = BruteForceSearch(objective, bopts);
    ASSERT_EQ(result.best.size(), 200u);
    const double cut = result.best[4].sparsity;
    size_t at_cut = 0;
    for (const ScoredProjection& s : result.best) at_cut += s.sparsity == cut;
    EXPECT_EQ(result.best.front().sparsity, cut);
    EXPECT_GT(at_cut, 100u);
  }
}

constexpr ExpectationModel kUniform = ExpectationModel::kUniform;
constexpr ExpectationModel kEmpirical = ExpectationModel::kEmpiricalMarginals;

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, SearchConsistency,
    ::testing::Values(
        Instance{150, 5, 2, 3, 1, kUniform},
        Instance{300, 6, 2, 4, 2, kUniform},
        Instance{200, 7, 3, 3, 3, kUniform},
        Instance{400, 5, 3, 4, 4, kUniform},
        Instance{250, 8, 2, 5, 5, kUniform},
        Instance{100, 6, 4, 2, 6, kUniform},
        Instance{100, 6, 3, 4, 7, kUniform},  // tie-heavy
        Instance{150, 5, 2, 3, 1, kEmpirical},
        Instance{300, 6, 2, 4, 2, kEmpirical},
        Instance{200, 7, 3, 3, 3, kEmpirical},
        Instance{400, 5, 3, 4, 4, kEmpirical},
        Instance{250, 8, 2, 5, 5, kEmpirical},
        Instance{100, 6, 4, 2, 6, kEmpirical},
        Instance{100, 6, 3, 4, 7, kEmpirical}),  // tie-heavy
    [](const ::testing::TestParamInfo<Instance>& info) {
      const Instance& i = info.param;
      return "n" + std::to_string(i.n) + "_d" + std::to_string(i.d) + "_k" +
             std::to_string(i.k) + "_phi" + std::to_string(i.phi) + "_s" +
             std::to_string(i.seed) +
             (i.model == kEmpirical ? "_empirical" : "");
    });

}  // namespace
}  // namespace hido
