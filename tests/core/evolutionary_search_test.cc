#include "core/evolutionary_search.h"

#include <algorithm>
#include <limits>
#include <set>

#include <gtest/gtest.h>

#include "common/parallel.h"
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

TEST(EvolutionarySearchTest, FindsProjectionsOfRequestedShape) {
  Fixture f(GenerateUniform(500, 10, 1), 5);
  EvolutionaryOptions opts;
  opts.target_dim = 3;
  opts.num_projections = 10;
  opts.population_size = 30;
  opts.max_generations = 40;
  opts.seed = 1;
  const EvolutionResult result = EvolutionarySearch(f.objective, opts);
  EXPECT_LE(result.best.size(), 10u);
  EXPECT_FALSE(result.best.empty());
  for (const ScoredProjection& s : result.best) {
    EXPECT_EQ(s.projection.Dimensionality(), 3u);
    EXPECT_GE(s.count, 1u);
  }
  // Sorted best-first.
  for (size_t i = 1; i < result.best.size(); ++i) {
    EXPECT_LE(result.best[i - 1].sparsity, result.best[i].sparsity);
  }
}

TEST(EvolutionarySearchTest, DeterministicPerSeed) {
  Fixture f(GenerateUniform(300, 8, 2), 4);
  EvolutionaryOptions opts;
  opts.target_dim = 2;
  opts.num_projections = 5;
  opts.population_size = 20;
  opts.max_generations = 20;
  opts.seed = 99;
  const EvolutionResult a = EvolutionarySearch(f.objective, opts);
  const EvolutionResult b = EvolutionarySearch(f.objective, opts);
  ASSERT_EQ(a.best.size(), b.best.size());
  for (size_t i = 0; i < a.best.size(); ++i) {
    EXPECT_EQ(a.best[i].projection, b.best[i].projection);
    EXPECT_EQ(a.best[i].count, b.best[i].count);
  }
  EXPECT_EQ(a.stats.generations, b.stats.generations);
}

TEST(EvolutionarySearchTest, BitIdenticalResultsForAnyThreadCount) {
  // The determinism contract: with a fixed seed and no time budget, the
  // returned best set is bit-identical (projections, counts, sparsity
  // coefficients) for every thread count. Restarts exercise both parallel
  // axes: restarts-as-tasks and per-generation evaluation fan-out.
  SubspaceOutlierConfig config;
  config.num_points = 400;
  config.num_dims = 16;
  config.num_groups = 4;
  config.num_outliers = 6;
  config.seed = 21;
  const GeneratedDataset g = GenerateSubspaceOutliers(config);

  EvolutionaryOptions opts;
  opts.target_dim = 2;
  opts.num_projections = 12;
  opts.population_size = 30;
  opts.max_generations = 15;
  opts.restarts = 3;
  opts.seed = 77;

  std::vector<size_t> thread_counts = {1, 2, HardwareThreads()};
  std::vector<EvolutionResult> results;
  for (size_t threads : thread_counts) {
    Fixture f(g.data, 5);
    opts.num_threads = threads;
    results.push_back(EvolutionarySearch(f.objective, opts));
  }
  const EvolutionResult& serial = results.front();
  ASSERT_FALSE(serial.best.empty());
  for (size_t r = 1; r < results.size(); ++r) {
    const EvolutionResult& threaded = results[r];
    ASSERT_EQ(serial.best.size(), threaded.best.size())
        << "num_threads=" << thread_counts[r];
    for (size_t i = 0; i < serial.best.size(); ++i) {
      EXPECT_EQ(serial.best[i].projection, threaded.best[i].projection);
      EXPECT_EQ(serial.best[i].count, threaded.best[i].count);
      // Bit-identical, not merely close.
      EXPECT_EQ(serial.best[i].sparsity, threaded.best[i].sparsity);
    }
    EXPECT_EQ(serial.stats.generations, threaded.stats.generations);
    EXPECT_EQ(serial.stats.evaluations, threaded.stats.evaluations);
  }
}

TEST(EvolutionarySearchTest, StatsStayTruthfulUnderConcurrency) {
  // Evaluations done on the private per-worker objectives must be folded
  // back into the caller's objective.
  Fixture f(GenerateUniform(300, 10, 3), 5);
  EvolutionaryOptions opts;
  opts.target_dim = 2;
  opts.num_projections = 5;
  opts.population_size = 20;
  opts.max_generations = 10;
  opts.restarts = 2;
  opts.num_threads = 2;
  opts.seed = 13;
  const EvolutionResult result = EvolutionarySearch(f.objective, opts);
  EXPECT_GT(result.stats.evaluations, 0u);
  EXPECT_EQ(f.objective.num_evaluations(), result.stats.evaluations);
}

TEST(EvolutionarySearchTest, OversizedThreadCountIsClampedNotAllocated) {
  // A caller passing e.g. -1 cast to size_t must not make the search try
  // to allocate one evaluator per requested thread; evaluators are clamped
  // to what the pool can actually deploy, and results match num_threads=1.
  EvolutionaryOptions opts;
  opts.target_dim = 2;
  opts.num_projections = 3;
  opts.population_size = 16;
  opts.max_generations = 6;
  opts.restarts = 2;
  opts.seed = 21;

  Fixture serial_f(GenerateUniform(200, 8, 3), 4);
  opts.num_threads = 1;
  const EvolutionResult serial = EvolutionarySearch(serial_f.objective, opts);

  Fixture huge_f(GenerateUniform(200, 8, 3), 4);
  opts.num_threads = std::numeric_limits<size_t>::max();
  const EvolutionResult huge = EvolutionarySearch(huge_f.objective, opts);

  ASSERT_EQ(serial.best.size(), huge.best.size());
  for (size_t i = 0; i < serial.best.size(); ++i) {
    EXPECT_EQ(serial.best[i].projection, huge.best[i].projection);
    EXPECT_EQ(serial.best[i].sparsity, huge.best[i].sparsity);
  }
}

TEST(EvolutionarySearchTest, FindsPlantedSparseCombination) {
  // The planted anomalies live in jointly-rare 2-d cells; the best 2-d
  // projections found by the GA should cover at least one planted row.
  SubspaceOutlierConfig config;
  config.num_points = 600;
  config.num_dims = 20;
  config.num_groups = 6;
  config.num_outliers = 6;
  config.outlier_subspace_dims = 2;
  config.seed = 5;
  const GeneratedDataset g = GenerateSubspaceOutliers(config);
  Fixture f(g.data, 5);

  EvolutionaryOptions opts;
  opts.target_dim = 2;
  opts.num_projections = 20;
  opts.population_size = 60;
  opts.max_generations = 60;
  opts.seed = 3;
  const EvolutionResult result = EvolutionarySearch(f.objective, opts);
  ASSERT_FALSE(result.best.empty());
  // Best projection is genuinely sparse.
  EXPECT_LT(result.best.front().sparsity, -1.0);
}

TEST(EvolutionarySearchTest, MatchesBruteForceOnSmallInstance) {
  // On a small search space the GA should find the optimum (Table 1's "*"
  // rows: same quality as brute force).
  Fixture f(GenerateUniform(400, 6, 7), 4);
  BruteForceOptions bopts;
  bopts.target_dim = 2;
  bopts.num_projections = 1;
  const BruteForceResult brute = BruteForceSearch(f.objective, bopts);

  EvolutionaryOptions eopts;
  eopts.target_dim = 2;
  eopts.num_projections = 1;
  eopts.population_size = 50;
  eopts.max_generations = 80;
  eopts.seed = 11;
  const EvolutionResult evo = EvolutionarySearch(f.objective, eopts);
  ASSERT_FALSE(evo.best.empty());
  EXPECT_NEAR(evo.best.front().sparsity, brute.best.front().sparsity, 1e-9);
}

TEST(EvolutionarySearchTest, StopsOnTimeBudget) {
  Fixture f(GenerateUniform(2000, 40, 8), 10);
  EvolutionaryOptions opts;
  opts.target_dim = 4;
  opts.num_projections = 10;
  opts.population_size = 200;
  opts.max_generations = 1000000;
  opts.stagnation_generations = 0;  // disabled
  StopToken deadline;
  deadline.SetDeadline(0.2);
  opts.stop = &deadline;
  opts.seed = 4;
  const EvolutionResult result = EvolutionarySearch(f.objective, opts);
  EXPECT_EQ(result.stats.stop_reason, StopReason::kTimeBudget);
  EXPECT_LT(result.stats.seconds, 5.0);
}

TEST(EvolutionarySearchTest, DeadlineExpiryOnInjectedClockReturnsValidPartial) {
  // The injected clock steps a fixed amount per read, so the deadline expires
  // after a deterministic number of generation-boundary polls — the expiry
  // path is covered without any real sleeping or wall-clock dependence.
  Fixture f(GenerateUniform(300, 8, 2), 4);
  FakeClock clock(0.0, 0.1);
  StopToken deadline(&clock);
  deadline.SetDeadline(1.0);  // expires on the 10th poll
  EvolutionaryOptions opts;
  opts.target_dim = 2;
  opts.num_projections = 5;
  opts.population_size = 20;
  opts.max_generations = 200;
  opts.stagnation_generations = 0;
  opts.restarts = 4;
  opts.seed = 3;
  opts.stop = &deadline;
  const EvolutionResult result = EvolutionarySearch(f.objective, opts);

  EXPECT_FALSE(result.stats.completed);
  EXPECT_EQ(result.stats.stop_cause, StopCause::kDeadline);
  EXPECT_EQ(result.stats.stop_reason, StopReason::kTimeBudget);
  // Genuinely partial, but with a valid best-so-far report.
  EXPECT_LT(result.stats.generations, 4u * 200u);
  EXPECT_FALSE(result.best.empty());
  for (const ScoredProjection& s : result.best) {
    EXPECT_EQ(s.projection.Dimensionality(), 2u);
    EXPECT_GE(s.count, 1u);
  }
  for (size_t i = 1; i < result.best.size(); ++i) {
    EXPECT_LE(result.best[i - 1].sparsity, result.best[i].sparsity);
  }
  // Evaluation accounting stays truthful on the abort path: the partial run
  // consumed strictly fewer evaluations than the full batch would.
  EXPECT_GT(result.stats.evaluations, 0u);
}

TEST(EvolutionarySearchTest, PreCancelledTokenReturnsEmptyIncomplete) {
  Fixture f(GenerateUniform(200, 6, 5), 4);
  StopToken token;
  token.RequestCancel();
  EvolutionaryOptions opts;
  opts.target_dim = 2;
  opts.num_projections = 5;
  opts.stop = &token;
  const EvolutionResult result = EvolutionarySearch(f.objective, opts);
  EXPECT_FALSE(result.stats.completed);
  EXPECT_EQ(result.stats.stop_cause, StopCause::kCancelled);
  EXPECT_EQ(result.stats.stop_reason, StopReason::kCancelled);
  EXPECT_EQ(result.stats.evaluations, 0u);
  EXPECT_TRUE(result.best.empty());
}

TEST(EvolutionarySearchTest, FailpointInterruptIsDeterministic) {
  // Two runs interrupted at the same poll count must return the same
  // partial result when run serially — fault injection is reproducible.
  Fixture f(GenerateUniform(250, 8, 6), 4);
  EvolutionaryOptions opts;
  opts.target_dim = 2;
  opts.num_projections = 5;
  opts.population_size = 20;
  opts.max_generations = 60;
  opts.stagnation_generations = 0;
  opts.restarts = 2;
  opts.seed = 12;
  EvolutionResult runs[2];
  for (EvolutionResult& run : runs) {
    StopToken token;
    token.ArmFailpoint(25);
    opts.stop = &token;
    run = EvolutionarySearch(f.objective, opts);
    EXPECT_FALSE(run.stats.completed);
    EXPECT_EQ(run.stats.stop_cause, StopCause::kFailpoint);
  }
  ASSERT_EQ(runs[0].best.size(), runs[1].best.size());
  for (size_t i = 0; i < runs[0].best.size(); ++i) {
    EXPECT_EQ(runs[0].best[i].projection, runs[1].best[i].projection);
    EXPECT_EQ(runs[0].best[i].sparsity, runs[1].best[i].sparsity);
  }
  EXPECT_EQ(runs[0].stats.evaluations, runs[1].stats.evaluations);
  EXPECT_EQ(runs[0].stats.generations, runs[1].stats.generations);
}

TEST(EvolutionarySearchTest, StopsOnStagnation) {
  Fixture f(GenerateUniform(100, 4, 9), 3);
  EvolutionaryOptions opts;
  opts.target_dim = 2;
  opts.num_projections = 3;
  opts.population_size = 20;
  opts.max_generations = 100000;
  opts.stagnation_generations = 5;
  opts.convergence_threshold = 1.01;  // unreachable: isolate stagnation
  opts.seed = 5;
  const EvolutionResult result = EvolutionarySearch(f.objective, opts);
  EXPECT_EQ(result.stats.stop_reason, StopReason::kStagnation);
  EXPECT_LT(result.stats.generations, 100000u);
}

TEST(EvolutionarySearchTest, GenerationCallbackObservesProgress) {
  Fixture f(GenerateUniform(200, 6, 10), 4);
  EvolutionaryOptions opts;
  opts.target_dim = 2;
  opts.num_projections = 5;
  opts.population_size = 16;
  opts.max_generations = 10;
  opts.stagnation_generations = 0;
  opts.convergence_threshold = 1.01;
  opts.seed = 6;
  size_t calls = 0;
  size_t last_gen = 0;
  const EvolutionResult result = EvolutionarySearch(
      f.objective, opts,
      [&](size_t gen, const std::vector<Individual>& population,
          const BestSet& best) {
        ++calls;
        last_gen = gen;
        EXPECT_EQ(population.size(), 16u);
        EXPECT_LE(best.size(), 5u);
      });
  EXPECT_EQ(calls, result.stats.generations);
  EXPECT_EQ(last_gen + 1, result.stats.generations);
}

TEST(EvolutionarySearchTest, TwoPointCrossoverAlsoProducesResults) {
  Fixture f(GenerateUniform(300, 10, 11), 5);
  EvolutionaryOptions opts;
  opts.target_dim = 3;
  opts.num_projections = 8;
  opts.population_size = 40;
  opts.max_generations = 40;
  opts.crossover = CrossoverKind::kTwoPoint;
  opts.seed = 7;
  const EvolutionResult result = EvolutionarySearch(f.objective, opts);
  EXPECT_FALSE(result.best.empty());
  for (const ScoredProjection& s : result.best) {
    EXPECT_EQ(s.projection.Dimensionality(), 3u);
  }
}

TEST(EvolutionarySearchTest, OptimizedBeatsTwoPointOnAverageQuality) {
  // The paper's central ablation (Gen vs Gen°): the optimized crossover
  // yields at-least-as-negative mean sparsity on structured data.
  SubspaceOutlierConfig config;
  config.num_points = 500;
  config.num_dims = 24;
  config.num_groups = 6;
  config.seed = 12;
  const GeneratedDataset g = GenerateSubspaceOutliers(config);

  double two_point_total = 0.0;
  double optimized_total = 0.0;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Fixture f(g.data, 5);
    EvolutionaryOptions opts;
    opts.target_dim = 3;
    opts.num_projections = 10;
    opts.population_size = 40;
    opts.max_generations = 30;
    opts.seed = seed;

    opts.crossover = CrossoverKind::kTwoPoint;
    const EvolutionResult two_point = EvolutionarySearch(f.objective, opts);
    opts.crossover = CrossoverKind::kOptimized;
    const EvolutionResult optimized = EvolutionarySearch(f.objective, opts);

    for (const auto& s : two_point.best) two_point_total += s.sparsity;
    for (const auto& s : optimized.best) optimized_total += s.sparsity;
  }
  EXPECT_LE(optimized_total, two_point_total);
}

TEST(EvolutionarySearchTest, ElitismNeverLosesTheBest) {
  // With elitism on, the fittest string in the population can only improve
  // from one generation to the next.
  Fixture f(GenerateUniform(400, 10, 31), 5);
  EvolutionaryOptions opts;
  opts.target_dim = 3;
  opts.num_projections = 5;
  opts.population_size = 30;
  opts.max_generations = 40;
  opts.elitism = 2;
  opts.stagnation_generations = 0;
  opts.seed = 8;
  double last_best = std::numeric_limits<double>::infinity();
  EvolutionarySearch(
      f.objective, opts,
      [&](size_t, const std::vector<Individual>& population,
          const BestSet&) {
        double generation_best = std::numeric_limits<double>::infinity();
        for (const Individual& ind : population) {
          generation_best = std::min(generation_best, ind.sparsity);
        }
        EXPECT_LE(generation_best, last_best + 1e-12);
        last_best = generation_best;
      });
}

TEST(EvolutionarySearchTest, ElitismPreservesPopulationSize) {
  Fixture f(GenerateUniform(200, 8, 32), 4);
  EvolutionaryOptions opts;
  opts.target_dim = 2;
  opts.num_projections = 5;
  opts.population_size = 17;  // odd, with elitism
  opts.max_generations = 10;
  opts.elitism = 3;
  opts.seed = 9;
  EvolutionarySearch(f.objective, opts,
                     [&](size_t, const std::vector<Individual>& population,
                         const BestSet&) {
                       EXPECT_EQ(population.size(), 17u);
                     });
}

TEST(EvolutionarySearchDeathTest, InvalidOptions) {
  Fixture f(GenerateUniform(50, 3, 13), 3);
  EvolutionaryOptions opts;
  opts.target_dim = 5;  // > d
  EXPECT_DEATH(EvolutionarySearch(f.objective, opts), "target_dim");
  opts.target_dim = 2;
  opts.population_size = 1;
  EXPECT_DEATH(EvolutionarySearch(f.objective, opts), "population");
}

}  // namespace
}  // namespace hido
