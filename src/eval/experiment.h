#ifndef HIDO_EVAL_EXPERIMENT_H_
#define HIDO_EVAL_EXPERIMENT_H_

// Shared harness plumbing for the benchmark binaries: run one search
// algorithm over a dataset at given grid parameters and collect the
// quantities the paper's tables report (wall-clock, mean sparsity of the
// best m non-empty projections, work counters).

#include <cstdint>
#include <vector>

#include "core/brute_force.h"
#include "core/evolutionary_search.h"
#include "data/dataset.h"
#include "grid/grid_model.h"

namespace hido {

/// Outcome of one search run, normalized across algorithms.
struct SearchRun {
  double seconds = 0.0;  ///< wall-clock for this run
  /// Mean sparsity coefficient of the returned projections — the paper's
  /// Table 1 "quality" (best 20 non-empty cubes).
  double mean_quality = 0.0;
  /// Sparsity of the single best projection.
  double best_quality = 0.0;
  /// Cubes scored: exhaustive leaves for brute force, objective evaluations
  /// for the evolutionary algorithm.
  uint64_t cubes_examined = 0;
  /// False when the brute-force budget expired first (brute force on musk).
  bool completed = true;
  std::vector<ScoredProjection> best;  ///< best set found by the run
};

/// Common parameters of a search experiment.
struct ExperimentParams {
  size_t phi = 5;         ///< grid ranges per dimension
  size_t target_dim = 3;  ///< projection dimensionality k
  size_t num_projections = 20;  ///< m
  /// Brute-force wall-clock budget in seconds (0 = unlimited).
  double brute_force_budget_seconds = 60.0;
  /// Brute-force worker threads.
  size_t brute_force_threads = 1;
  /// Evolutionary knobs.
  size_t population_size = 100;  ///< evolutionary population p
  size_t max_generations = 150;  ///< generation cap per restart
  size_t restarts = 1;           ///< independent restarts
  uint64_t seed = 42;            ///< master RNG seed
};

/// Runs the exhaustive search (Figure 2) over `data`.
SearchRun RunBruteForceExperiment(const Dataset& data,
                                  const ExperimentParams& params);

/// Runs the evolutionary search (Figure 3) with the given crossover.
SearchRun RunEvolutionaryExperiment(const Dataset& data,
                                    const ExperimentParams& params,
                                    CrossoverKind crossover);

}  // namespace hido

#endif  // HIDO_EVAL_EXPERIMENT_H_
