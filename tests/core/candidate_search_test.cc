#include "core/candidate_search.h"

#include <gtest/gtest.h>

#include "core/brute_force.h"
#include "data/generators/synthetic.h"

namespace hido {
namespace {

struct Fixture {
  Fixture(size_t n, size_t d, size_t phi, uint64_t seed)
      : grid(GridModel::Build(GenerateUniform(n, d, seed),
                              [&] {
                                GridModel::Options o;
                                o.phi = phi;
                                return o;
                              }())),
        objective(grid) {}
  GridModel grid;
  SparsityObjective objective;
};

TEST(CandidateSearchTest, LevelSizesMatchClosedForm) {
  Fixture f(100, 6, 3, 1);
  CandidateSearchOptions opts;
  opts.target_dim = 3;
  const CandidateSearchResult result = CandidateSetSearch(f.objective, opts);
  ASSERT_TRUE(result.stats.completed);
  ASSERT_EQ(result.stats.level_sizes.size(), 3u);
  // Level i holds every i-combination whose dims leave room for k-i more:
  // sum over valid prefixes; the final level is C(d,k)*phi^k exactly.
  EXPECT_EQ(result.stats.level_sizes[2],
            static_cast<uint64_t>(BruteForceSearchSpace(6, 3, 3)));
  EXPECT_GT(result.stats.peak_candidate_bytes, 0u);
}

TEST(CandidateSearchTest, AgreesWithDfsBruteForce) {
  // The paper's pseudocode and our DFS must report identical sets.
  Fixture f(400, 6, 4, 2);
  CandidateSearchOptions copts;
  copts.target_dim = 3;
  copts.num_projections = 10;
  const CandidateSearchResult materialized =
      CandidateSetSearch(f.objective, copts);
  ASSERT_TRUE(materialized.stats.completed);

  BruteForceOptions bopts;
  bopts.target_dim = 3;
  bopts.num_projections = 10;
  const BruteForceResult dfs = BruteForceSearch(f.objective, bopts);

  ASSERT_EQ(materialized.best.size(), dfs.best.size());
  for (size_t i = 0; i < dfs.best.size(); ++i) {
    EXPECT_NEAR(materialized.best[i].sparsity, dfs.best[i].sparsity, 1e-12);
    EXPECT_EQ(materialized.best[i].count, dfs.best[i].count);
  }
}

TEST(CandidateSearchTest, KEqualsOne) {
  Fixture f(100, 4, 5, 3);
  CandidateSearchOptions opts;
  opts.target_dim = 1;
  opts.num_projections = 20;
  const CandidateSearchResult result = CandidateSetSearch(f.objective, opts);
  ASSERT_TRUE(result.stats.completed);
  EXPECT_EQ(result.stats.level_sizes[0], 20u);  // 4 dims * 5 cells
  EXPECT_EQ(result.best.size(), 20u);
}

TEST(CandidateSearchTest, CandidateBudgetFailsCleanly) {
  // d=30, k=3, phi=4: |R_3| = C(30,3)*64 = 259,840 > the tiny budget.
  Fixture f(50, 30, 4, 4);
  CandidateSearchOptions opts;
  opts.target_dim = 3;
  opts.max_candidates = 10000;
  const CandidateSearchResult result = CandidateSetSearch(f.objective, opts);
  EXPECT_FALSE(result.stats.completed);
  EXPECT_TRUE(result.best.empty());
}

TEST(CandidateSearchTest, MemoryGrowsCombinatorially) {
  // The reason the DFS exists: candidate bytes at k=3 dwarf k=2.
  Fixture f(50, 12, 4, 5);
  CandidateSearchOptions opts;
  opts.num_projections = 5;
  opts.target_dim = 2;
  const CandidateSearchResult k2 = CandidateSetSearch(f.objective, opts);
  opts.target_dim = 3;
  const CandidateSearchResult k3 = CandidateSetSearch(f.objective, opts);
  ASSERT_TRUE(k2.stats.completed && k3.stats.completed);
  EXPECT_GT(k3.stats.peak_candidate_bytes,
            4 * k2.stats.peak_candidate_bytes);
}

TEST(CandidateSearchDeathTest, BadTargetDim) {
  Fixture f(10, 2, 2, 6);
  CandidateSearchOptions opts;
  opts.target_dim = 5;
  EXPECT_DEATH(CandidateSetSearch(f.objective, opts), "target_dim");
}

}  // namespace
}  // namespace hido
