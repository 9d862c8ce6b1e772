#include "eval/experiment.h"

#include "common/stats.h"

namespace hido {

namespace {

GridModel BuildGrid(const Dataset& data, size_t phi) {
  GridModel::Options options;
  options.phi = phi;
  return GridModel::Build(data, options);
}

double MeanSparsity(const std::vector<ScoredProjection>& best) {
  if (best.empty()) return 0.0;
  double sum = 0.0;
  for (const ScoredProjection& s : best) sum += s.sparsity;
  return sum / static_cast<double>(best.size());
}

}  // namespace

SearchRun RunBruteForceExperiment(const Dataset& data,
                                  const ExperimentParams& params) {
  const GridModel grid = BuildGrid(data, params.phi);
  SparsityObjective objective(grid);

  BruteForceOptions options;
  options.target_dim = params.target_dim;
  options.num_projections = params.num_projections;
  options.num_threads = params.brute_force_threads;
  // Armed after the grid build, so the budget times the search alone.
  StopToken deadline;
  deadline.SetDeadline(params.brute_force_budget_seconds);
  options.stop = &deadline;
  const BruteForceResult result = BruteForceSearch(objective, options);

  SearchRun run;
  run.seconds = result.stats.seconds;
  run.mean_quality = MeanSparsity(result.best);
  run.best_quality = result.best.empty() ? 0.0 : result.best.front().sparsity;
  run.cubes_examined = result.stats.cubes_evaluated;
  run.completed = result.stats.completed;
  run.best = result.best;
  return run;
}

SearchRun RunEvolutionaryExperiment(const Dataset& data,
                                    const ExperimentParams& params,
                                    CrossoverKind crossover) {
  const GridModel grid = BuildGrid(data, params.phi);
  SparsityObjective objective(grid);

  EvolutionaryOptions options;
  options.target_dim = params.target_dim;
  options.num_projections = params.num_projections;
  options.population_size = params.population_size;
  options.max_generations = params.max_generations;
  options.restarts = params.restarts;
  options.crossover = crossover;
  options.seed = params.seed;
  const EvolutionResult result = EvolutionarySearch(objective, options);

  SearchRun run;
  run.seconds = result.stats.seconds;
  run.mean_quality = MeanSparsity(result.best);
  run.best_quality = result.best.empty() ? 0.0 : result.best.front().sparsity;
  run.cubes_examined = result.stats.evaluations;
  run.completed = true;
  run.best = result.best;
  return run;
}

}  // namespace hido
