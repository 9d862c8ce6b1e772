#include "core/brute_force.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "data/generators/synthetic.h"
#include "testing/count_oracle.h"

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
        counter(grid),
        objective(counter) {}
  GridModel grid;
  CubeCounter counter;
  SparsityObjective objective;
};

// Reference: enumerate every k-cube by recursion over sorted dim choices.
void EnumerateAll(const GridModel& grid, size_t k, size_t start,
                  std::vector<DimRange>& prefix,
                  std::vector<std::vector<DimRange>>& out) {
  if (prefix.size() == k) {
    out.push_back(prefix);
    return;
  }
  for (size_t d = start; d < grid.num_dims(); ++d) {
    for (uint32_t cell = 0; cell < grid.phi(); ++cell) {
      prefix.push_back({static_cast<uint32_t>(d), cell});
      EnumerateAll(grid, k, d + 1, prefix, out);
      prefix.pop_back();
    }
  }
}

TEST(BruteForceTest, MatchesNaiveEnumerationOptimum) {
  Fixture f(300, 5, 3, 1);
  BruteForceOptions opts;
  opts.target_dim = 2;
  opts.num_projections = 5;
  const BruteForceResult result = BruteForceSearch(f.objective, opts);
  ASSERT_EQ(result.best.size(), 5u);
  EXPECT_TRUE(result.stats.completed);

  // Reference computation, counted by the row-scan oracle.
  std::vector<std::vector<DimRange>> cubes;
  std::vector<DimRange> prefix;
  EnumerateAll(f.grid, 2, 0, prefix, cubes);
  EXPECT_EQ(cubes.size(),
            static_cast<size_t>(BruteForceSearchSpace(5, 2, 3)));
  std::vector<double> sparsities;
  for (const auto& cube : cubes) {
    const size_t count = CountByScan(f.grid, cube);
    if (count > 0) {
      sparsities.push_back(f.objective.model().Coefficient(count, 2));
    }
  }
  std::sort(sparsities.begin(), sparsities.end());
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(result.best[i].sparsity, sparsities[i], 1e-12) << i;
  }
}

TEST(BruteForceTest, ResultsSortedBestFirstAndNonEmpty) {
  Fixture f(400, 6, 4, 2);
  BruteForceOptions opts;
  opts.target_dim = 3;
  opts.num_projections = 10;
  const BruteForceResult result = BruteForceSearch(f.objective, opts);
  for (size_t i = 0; i < result.best.size(); ++i) {
    EXPECT_GE(result.best[i].count, 1u);
    EXPECT_EQ(result.best[i].projection.Dimensionality(), 3u);
    if (i > 0) {
      EXPECT_LE(result.best[i - 1].sparsity, result.best[i].sparsity);
    }
  }
}

TEST(BruteForceTest, PruningDoesNotChangeResults) {
  Fixture f(40, 5, 4, 3);  // sparse enough that empty partial cubes exist
  BruteForceOptions opts;
  opts.target_dim = 3;
  opts.num_projections = 8;

  opts.prune_empty_subtrees = true;
  const BruteForceResult pruned = BruteForceSearch(f.objective, opts);
  opts.prune_empty_subtrees = false;
  const BruteForceResult full = BruteForceSearch(f.objective, opts);

  EXPECT_GT(pruned.stats.subtrees_pruned, 0u);
  EXPECT_LT(pruned.stats.cubes_evaluated, full.stats.cubes_evaluated);
  ASSERT_EQ(pruned.best.size(), full.best.size());
  for (size_t i = 0; i < pruned.best.size(); ++i) {
    EXPECT_NEAR(pruned.best[i].sparsity, full.best[i].sparsity, 1e-12);
  }
}

TEST(BruteForceTest, CubesEvaluatedMatchesSearchSpaceWithoutPruning) {
  Fixture f(100, 4, 3, 4);
  BruteForceOptions opts;
  opts.target_dim = 2;
  opts.num_projections = 3;
  opts.prune_empty_subtrees = false;
  const BruteForceResult result = BruteForceSearch(f.objective, opts);
  EXPECT_EQ(static_cast<double>(result.stats.cubes_evaluated),
            BruteForceSearchSpace(4, 2, 3));
}

TEST(BruteForceTest, EmptyCubesReportedWhenAllowed) {
  // 20 points in a phi=4 grid: most 3-cubes are empty.
  Fixture f(20, 5, 4, 5);
  BruteForceOptions opts;
  opts.target_dim = 3;
  opts.num_projections = 5;
  opts.require_non_empty = false;
  opts.prune_empty_subtrees = false;
  const BruteForceResult result = BruteForceSearch(f.objective, opts);
  ASSERT_FALSE(result.best.empty());
  // The most negative cubes are the empty ones.
  EXPECT_EQ(result.best[0].count, 0u);
  EXPECT_NEAR(result.best[0].sparsity,
              f.objective.model().EmptyCubeCoefficient(3), 1e-12);
}

TEST(BruteForceTest, MaxCubesBudgetStopsEarly) {
  Fixture f(200, 8, 5, 6);
  BruteForceOptions opts;
  opts.target_dim = 3;
  opts.num_projections = 5;
  opts.max_cubes = 100;
  const BruteForceResult result = BruteForceSearch(f.objective, opts);
  EXPECT_FALSE(result.stats.completed);
  EXPECT_LE(result.stats.cubes_evaluated, 100u);
}

TEST(BruteForceTest, PublishedBudgetMatchesEvaluatedCubes) {
  // The shared budget counter the workers publish into must agree with the
  // per-worker statistics merged into the result — every leaf is flushed
  // before the merge, including work done between the last periodic flush
  // and an abort.
  Fixture f(400, 10, 4, 23);

  // Run to completion, serial and parallel.
  for (size_t threads : {1u, 4u}) {
    BruteForceOptions opts;
    opts.target_dim = 3;
    opts.num_projections = 5;
    opts.num_threads = threads;
    const BruteForceResult result = BruteForceSearch(f.objective, opts);
    EXPECT_TRUE(result.stats.completed);
    EXPECT_EQ(result.stats.cubes_published, result.stats.cubes_evaluated)
        << "threads=" << threads;
  }

  // Aborted mid-subtree by the cube budget, serial and parallel.
  for (size_t threads : {1u, 4u}) {
    BruteForceOptions opts;
    opts.target_dim = 3;
    opts.num_projections = 5;
    opts.max_cubes = 50;
    opts.num_threads = threads;
    const BruteForceResult result = BruteForceSearch(f.objective, opts);
    EXPECT_FALSE(result.stats.completed);
    EXPECT_GT(result.stats.cubes_evaluated, 0u);
    EXPECT_EQ(result.stats.cubes_published, result.stats.cubes_evaluated)
        << "threads=" << threads;
  }
}

TEST(BruteForceTest, OversizedThreadCountIsClampedNotAllocated) {
  // One Worker (with its own scratch bitsets) is allocated per thread; an
  // oversized request such as -1 cast to size_t must be clamped to usable
  // parallelism, not allocated literally.
  Fixture f(200, 6, 4, 25);
  BruteForceOptions opts;
  opts.target_dim = 2;
  opts.num_projections = 3;
  opts.num_threads = std::numeric_limits<size_t>::max();
  const BruteForceResult result = BruteForceSearch(f.objective, opts);
  EXPECT_TRUE(result.stats.completed);
  EXPECT_EQ(result.best.size(), 3u);
}

TEST(BruteForceTest, CounterStatsInvariantSurvivesCountUncached) {
  // Every query through CubeCounter bumps `queries` exactly once (the
  // public CountUncached once forgot to), recounts rather than memoizes,
  // and per-thread counters merge with AbsorbStats.
  Fixture f(300, 6, 4, 24);
  const std::vector<DimRange> cube = {{0, 1}, {2, 0}};
  const size_t expected = CountByScan(f.grid, cube);
  CubeCounter worker_counter(f.grid);
  EXPECT_EQ(f.counter.Count(cube), expected);
  EXPECT_EQ(f.counter.Count(cube), expected);  // recounted: no memo
  EXPECT_EQ(f.counter.Count({{0, 1}}), f.grid.RangeCardinality(0, 1));
  EXPECT_EQ(worker_counter.Count(cube), expected);
  f.counter.AbsorbStats(worker_counter.stats());
  EXPECT_EQ(f.counter.stats().queries, 4u);
}

TEST(BruteForceTest, KEqualsOneScansSingleRanges) {
  Fixture f(100, 3, 4, 7);
  BruteForceOptions opts;
  opts.target_dim = 1;
  opts.num_projections = 12;
  const BruteForceResult result = BruteForceSearch(f.objective, opts);
  EXPECT_EQ(static_cast<double>(result.stats.cubes_evaluated), 12.0);
  EXPECT_EQ(result.best.size(), 12u);
}

TEST(BruteForceTest, KEqualsDimensionality) {
  Fixture f(50, 3, 2, 8);
  BruteForceOptions opts;
  opts.target_dim = 3;  // == d: exactly phi^d cubes
  opts.num_projections = 4;
  opts.prune_empty_subtrees = false;
  const BruteForceResult result = BruteForceSearch(f.objective, opts);
  EXPECT_EQ(static_cast<double>(result.stats.cubes_evaluated), 8.0);
}

TEST(BruteForceTest, ParallelMatchesSerial) {
  Fixture f(500, 10, 4, 21);
  BruteForceOptions opts;
  opts.target_dim = 3;
  opts.num_projections = 8;

  opts.num_threads = 1;
  const BruteForceResult serial = BruteForceSearch(f.objective, opts);
  opts.num_threads = 4;
  const BruteForceResult parallel = BruteForceSearch(f.objective, opts);

  EXPECT_TRUE(parallel.stats.completed);
  EXPECT_EQ(parallel.stats.cubes_evaluated, serial.stats.cubes_evaluated);
  ASSERT_EQ(parallel.best.size(), serial.best.size());
  for (size_t i = 0; i < serial.best.size(); ++i) {
    EXPECT_NEAR(parallel.best[i].sparsity, serial.best[i].sparsity, 1e-12);
    EXPECT_EQ(parallel.best[i].count, serial.best[i].count);
  }
}

TEST(BruteForceTest, ParallelRespectsTimeBudget) {
  Fixture f(2000, 24, 8, 22);
  BruteForceOptions opts;
  opts.target_dim = 4;
  opts.num_projections = 5;
  opts.num_threads = 4;
  opts.time_budget_seconds = 0.05;
  const BruteForceResult result = BruteForceSearch(f.objective, opts);
  EXPECT_FALSE(result.stats.completed);
  EXPECT_LT(result.stats.seconds, 5.0);
}

TEST(BruteForceTest, ExactSparsityTiesResolveIdenticallyAcrossThreads) {
  // phi=2 over few points gives many cubes with identical counts — hence
  // bit-identical sparsity coefficients. The (sparsity, projection-key)
  // total order in BestSet must then pick the same winners no matter which
  // worker offered first.
  Fixture f(256, 8, 2, 11);
  BruteForceOptions opts;
  opts.target_dim = 2;
  opts.num_projections = 12;

  opts.num_threads = 1;
  const BruteForceResult reference = BruteForceSearch(f.objective, opts);
  ASSERT_TRUE(reference.stats.completed);

  // The construction must actually produce ties inside the retained set,
  // otherwise this test exercises nothing.
  size_t tied_pairs = 0;
  for (size_t i = 1; i < reference.best.size(); ++i) {
    if (reference.best[i].sparsity == reference.best[i - 1].sparsity) {
      ++tied_pairs;
    }
  }
  ASSERT_GE(tied_pairs, 1u);

  for (size_t threads : {2u, 4u, 8u}) {
    opts.num_threads = threads;
    const BruteForceResult run = BruteForceSearch(f.objective, opts);
    ASSERT_EQ(run.best.size(), reference.best.size()) << threads;
    for (size_t i = 0; i < reference.best.size(); ++i) {
      EXPECT_EQ(run.best[i].projection, reference.best[i].projection)
          << "threads=" << threads << " entry=" << i;
      EXPECT_EQ(run.best[i].count, reference.best[i].count);
      EXPECT_EQ(run.best[i].sparsity, reference.best[i].sparsity);
    }
  }
}

TEST(BruteForceTest, DeadlineExpiryOnInjectedClockReturnsValidPartial) {
  // The clock advances a fixed step per read, so the deadline expires after
  // a deterministic number of polls — no wall-clock sleeps involved.
  Fixture f(300, 10, 4, 9);
  FakeClock clock(0.0, 0.1);
  BruteForceOptions opts;
  opts.target_dim = 3;
  opts.num_projections = 5;
  opts.time_budget_seconds = 0.5;  // expires on the 5th poll
  opts.clock = &clock;
  const BruteForceResult result = BruteForceSearch(f.objective, opts);

  EXPECT_FALSE(result.stats.completed);
  EXPECT_EQ(result.stats.stop_cause, StopCause::kDeadline);
  // Accounting invariants hold even on the abort path.
  EXPECT_EQ(result.stats.cubes_published, result.stats.cubes_evaluated);
  // Genuinely partial: the full space is C(10,3) * 4^3 = 7680 leaves.
  EXPECT_LT(result.stats.cubes_evaluated, 7680u);
  // What was found is still a valid, sorted best-so-far report.
  EXPECT_FALSE(result.best.empty());
  for (const ScoredProjection& s : result.best) {
    EXPECT_EQ(s.projection.Dimensionality(), 3u);
    EXPECT_GE(s.count, 1u);
  }
  for (size_t i = 1; i < result.best.size(); ++i) {
    EXPECT_LE(result.best[i - 1].sparsity, result.best[i].sparsity);
  }
}

TEST(BruteForceTest, PreCancelledTokenStopsBeforeAnyWork) {
  Fixture f(200, 8, 4, 10);
  StopToken token;
  token.RequestCancel();
  BruteForceOptions opts;
  opts.target_dim = 3;
  opts.num_projections = 5;
  opts.stop = &token;
  const BruteForceResult result = BruteForceSearch(f.objective, opts);
  EXPECT_FALSE(result.stats.completed);
  EXPECT_EQ(result.stats.stop_cause, StopCause::kCancelled);
  EXPECT_EQ(result.stats.cubes_evaluated, 0u);
  EXPECT_EQ(result.stats.cubes_published, 0u);
}

TEST(BruteForceSearchSpaceTest, PaperExample) {
  // Section 3: d=20, k=4, phi=10 gives ~7 * 10^7 possibilities.
  const double space = BruteForceSearchSpace(20, 4, 10);
  EXPECT_NEAR(space, 4845.0 * 1e4, 1e-6);
  EXPECT_GT(space, 4.0e7);
  EXPECT_LT(space, 8.0e7);
}

TEST(BruteForceSearchSpaceTest, SmallCases) {
  EXPECT_DOUBLE_EQ(BruteForceSearchSpace(3, 1, 2), 6.0);
  EXPECT_DOUBLE_EQ(BruteForceSearchSpace(3, 2, 2), 12.0);
  EXPECT_DOUBLE_EQ(BruteForceSearchSpace(4, 4, 3), 81.0);
}

TEST(BruteForceDeathTest, BadTargetDim) {
  Fixture f(10, 2, 2, 9);
  BruteForceOptions opts;
  opts.target_dim = 3;  // > d
  EXPECT_DEATH(BruteForceSearch(f.objective, opts), "target_dim");
}

}  // namespace
}  // namespace hido
