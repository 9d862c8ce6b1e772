// Search-method ablation motivated directly by §2.1: the paper argues that
// evolutionary search dominates hill climbing, random search, and simulated
// annealing on this problem because it combines their ingredients with
// solution recombination. All four methods run here over the identical
// encoding, neighbourhood, objective, and best-set bookkeeping, with
// matched objective-evaluation budgets.
//
// Observed shape (an honest negative result — see EXPERIMENTS.md): at small
// d every method finds the optimum; at large d the synthetic landscape is a
// pure needle-in-haystack (§1.4: "the best projections are often created by
// an a-priori unknown combination of dimensions, which cannot be determined
// by examining any subset") with *no gradient at all* between needles, and
// under a matched evaluation budget plain random search and restart hill
// climbing are at least as effective as the evolutionary algorithm, whose
// selection pressure re-spends evaluations inside already-found regions.
// The GA's recombination can only pay off when partial solutions carry
// signal — true on real data with pervasive correlations, false in this
// worst-case construction.

#include <cstdio>

#include "common/string_util.h"
#include "core/evolutionary_search.h"
#include "core/local_search.h"
#include "core/postprocess.h"
#include "data/generators/synthetic.h"
#include "eval/metrics.h"
#include "eval/table.h"

namespace hido {
namespace {

struct MethodRun {
  double quality = 0.0;
  double recall = 0.0;
  double seconds = 0.0;
};

std::vector<size_t> Covered(const GridModel& grid,
                            const std::vector<ScoredProjection>& best) {
  const OutlierReport report = ExtractOutliers(grid, best);
  std::vector<size_t> rows;
  for (const OutlierRecord& o : report.outliers) rows.push_back(o.row);
  return rows;
}

double MeanQuality(const std::vector<ScoredProjection>& best) {
  if (best.empty()) return 0.0;
  double sum = 0.0;
  for (const ScoredProjection& s : best) sum += s.sparsity;
  return sum / static_cast<double>(best.size());
}

int Main() {
  std::printf("=== Search-method ablation (section 2.1) ===\n");
  std::printf("N=1000, 10 planted anomalies, k=2, phi=5, m=20;\n"
              "budget: 60k objective evaluations per method\n\n");

  TablePrinter table({"d", "method", "quality", "planted recall", "time"});
  bool first_group = true;
  for (size_t d : {16u, 48u, 96u}) {
    if (!first_group) table.AddSeparator();
    first_group = false;

    SubspaceOutlierConfig config;
    config.num_points = 1000;
    config.num_dims = d;
    config.num_groups = d / 4;
    config.num_outliers = 10;
    config.seed = 300 + d;
    const GeneratedDataset g = GenerateSubspaceOutliers(config);

    GridModel::Options gopts;
    gopts.phi = 5;
    const GridModel grid = GridModel::Build(g.data, gopts);

    auto add_row = [&](const char* name, const MethodRun& run) {
      table.AddRow({StrFormat("%zu", d), name,
                    StrFormat("%.3f", run.quality),
                    StrFormat("%.2f", run.recall),
                    StrFormat("%.3fs", run.seconds)});
    };

    constexpr uint64_t kBudget = 60000;

    // The three single-solution methods.
    for (LocalSearchMethod method :
         {LocalSearchMethod::kRandomSearch, LocalSearchMethod::kHillClimbing,
          LocalSearchMethod::kSimulatedAnnealing}) {
      SparsityObjective objective(grid);
      LocalSearchOptions opts;
      opts.method = method;
      opts.target_dim = 2;
      opts.num_projections = 20;
      opts.max_evaluations = kBudget;
      opts.seed = 5;
      const LocalSearchResult result = LocalSearch(objective, opts);
      MethodRun run;
      run.quality = MeanQuality(result.best);
      run.recall = RecallOfPlanted(Covered(grid, result.best),
                                   g.outlier_rows);
      run.seconds = result.stats.seconds;
      const char* name =
          method == LocalSearchMethod::kRandomSearch
              ? "random search"
              : (method == LocalSearchMethod::kHillClimbing
                     ? "hill climbing"
                     : "simulated annealing");
      add_row(name, run);
    }

    // The evolutionary algorithm at (approximately) the same budget:
    // restarts x generations x population x ~2 evals/generation ~ 60k.
    {
      SparsityObjective objective(grid);
      EvolutionaryOptions opts;
      opts.target_dim = 2;
      opts.num_projections = 20;
      opts.population_size = 100;
      opts.max_generations = 15;  // ~60k evaluations incl. crossover's
      opts.restarts = 8;          // partial-string scoring
      opts.stagnation_generations = 0;
      opts.mutation.p1 = 0.5;
      opts.mutation.p2 = 0.5;
      opts.seed = 5;
      const EvolutionResult result = EvolutionarySearch(objective, opts);
      MethodRun run;
      run.quality = MeanQuality(result.best);
      run.recall =
          RecallOfPlanted(Covered(grid, result.best), g.outlier_rows);
      run.seconds = result.stats.seconds;
      add_row(StrFormat("evolutionary (%lluk evals)",
                        static_cast<unsigned long long>(
                            result.stats.evaluations / 1000))
                  .c_str(),
              run);
    }
  }
  table.Print();
  return 0;
}

}  // namespace
}  // namespace hido

int main() { return hido::Main(); }
