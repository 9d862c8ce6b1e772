// Ablation of the recombination operator (the paper's Gen vs Gen°
// comparison, isolated): unbiased two-point crossover vs the optimized
// crossover of Figure 5, across population sizes, with matched budgets.
//
// Reported per configuration: final quality (mean sparsity of best 20
// non-empty cubes), wall-clock, objective evaluations, and the fraction of
// crossover offspring that were infeasible (two-point's failure mode — the
// optimized operator is dimensionality-preserving by construction, so its
// column is always 0).
//
// Expected shape: optimized crossover reaches equal-or-better quality, and
// two-point wastes a large share of its offspring on infeasible strings.

#include <cstdio>

#include "common/string_util.h"
#include "core/evolutionary_search.h"
#include "data/generators/synthetic.h"
#include "eval/table.h"

namespace hido {
namespace {

struct AblationRow {
  double quality = 0.0;
  double seconds = 0.0;
  uint64_t evaluations = 0;
  double infeasible_fraction = 0.0;
  size_t generations = 0;
};

AblationRow RunOnce(const Dataset& data, CrossoverKind kind,
                    size_t population, uint64_t seed) {
  GridModel::Options gopts;
  gopts.phi = 5;
  const GridModel grid = GridModel::Build(data, gopts);
  SparsityObjective objective(grid);

  EvolutionaryOptions options;
  options.target_dim = 3;
  options.num_projections = 20;
  options.population_size = population;
  options.max_generations = 80;
  options.crossover = kind;
  options.seed = seed;

  size_t infeasible = 0;
  size_t total = 0;
  const EvolutionResult result = EvolutionarySearch(
      objective, options,
      [&](size_t, const std::vector<Individual>& pop, const BestSet&) {
        for (const Individual& ind : pop) {
          ++total;
          infeasible += ind.feasible ? 0 : 1;
        }
      });

  AblationRow row;
  row.seconds = result.stats.seconds;
  row.evaluations = result.stats.evaluations;
  row.generations = result.stats.generations;
  if (!result.best.empty()) {
    double sum = 0.0;
    for (const ScoredProjection& s : result.best) sum += s.sparsity;
    row.quality = sum / static_cast<double>(result.best.size());
  }
  if (total > 0) {
    row.infeasible_fraction =
        static_cast<double>(infeasible) / static_cast<double>(total);
  }
  return row;
}

int Main() {
  std::printf("=== Crossover ablation: two-point vs optimized (Gen vs Gen_o) "
              "===\n");
  std::printf("N=800, d=32, k=3, phi=5, m=20, 80 generations max\n\n");

  SubspaceOutlierConfig config;
  config.num_points = 800;
  config.num_dims = 32;
  config.num_groups = 8;
  config.num_outliers = 8;
  config.seed = 9;
  const GeneratedDataset g = GenerateSubspaceOutliers(config);

  TablePrinter table({"population", "crossover", "quality", "time",
                      "evals", "gens", "infeasible pop share"});
  bool first_group = true;
  for (size_t population : {20u, 50u, 100u, 200u}) {
    if (!first_group) table.AddSeparator();
    first_group = false;
    for (CrossoverKind kind :
         {CrossoverKind::kTwoPoint, CrossoverKind::kOptimized}) {
      // Average three seeds to damp run-to-run noise.
      AblationRow mean;
      const int kSeeds = 3;
      for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
        const AblationRow row = RunOnce(g.data, kind, population, seed);
        mean.quality += row.quality / kSeeds;
        mean.seconds += row.seconds / kSeeds;
        mean.evaluations += row.evaluations / kSeeds;
        mean.generations += row.generations / kSeeds;
        mean.infeasible_fraction += row.infeasible_fraction / kSeeds;
      }
      table.AddRow({StrFormat("%zu", population),
                    kind == CrossoverKind::kTwoPoint ? "two-point (Gen)"
                                                     : "optimized (Gen_o)",
                    StrFormat("%.3f", mean.quality),
                    StrFormat("%.3fs", mean.seconds),
                    StrFormat("%llu", static_cast<unsigned long long>(
                                          mean.evaluations)),
                    StrFormat("%zu", mean.generations),
                    StrFormat("%.1f%%", 100.0 * mean.infeasible_fraction)});
    }
  }
  table.Print();
  return 0;
}

}  // namespace
}  // namespace hido

int main() { return hido::Main(); }
