// Micro-benchmarks for the genetic operators (google-benchmark): rank
// selection, both crossover operators, mutation, and a full generation.
// Quantifies the optimized crossover's extra objective evaluations — the
// cost it pays for dimensionality-preserving, fitness-seeking offspring.

#include <benchmark/benchmark.h>

#include "core/evolutionary_search.h"
#include "core/genetic/convergence.h"
#include "core/genetic/selection.h"
#include "data/generators/synthetic.h"
#include "obs/trace.h"

namespace hido {
namespace {

struct GaFixture {
  GaFixture()
      : data(GenerateUniform(2000, 32, 5)),
        grid(GridModel::Build(data,
                              [&] {
                                GridModel::Options o;
                                o.phi = 10;
                                return o;
                              }())),
        objective(grid) {}

  std::vector<Individual> MakePopulation(size_t p, size_t k, Rng& rng) {
    std::vector<Individual> population(p);
    for (Individual& ind : population) {
      ind.projection = Projection::Random(grid.num_dims(), k, grid.phi(), rng);
      EvaluateIndividual(ind, k, objective);
    }
    return population;
  }

  Dataset data;
  GridModel grid;
  SparsityObjective objective;
};

void BM_RankSelection(benchmark::State& state) {
  GaFixture fixture;
  Rng rng(1);
  auto population = fixture.MakePopulation(100, 4, rng);
  std::vector<Individual> selected;
  for (auto _ : state) {
    RankRouletteSelection(population, rng, &selected);
    benchmark::DoNotOptimize(selected.data());
  }
}
BENCHMARK(BM_RankSelection);

void BM_TwoPointCrossover(benchmark::State& state) {
  GaFixture fixture;
  Rng rng(2);
  const Projection a = Projection::Random(32, 4, 10, rng);
  const Projection b = Projection::Random(32, 4, 10, rng);
  Projection c1 = a;
  Projection c2 = b;
  for (auto _ : state) {
    c1 = a;
    c2 = b;
    TwoPointCrossover(c1, c2, rng);
    benchmark::DoNotOptimize(c1);
  }
}
BENCHMARK(BM_TwoPointCrossover);

void BM_OptimizedCrossover(benchmark::State& state) {
  GaFixture fixture;
  Rng rng(3);
  const size_t k = static_cast<size_t>(state.range(0));
  const Projection a = Projection::Random(32, k, 10, rng);
  const Projection b = Projection::Random(32, k, 10, rng);
  Projection c1 = a;
  Projection c2 = b;
  for (auto _ : state) {
    c1 = a;
    c2 = b;
    OptimizedCrossover(c1, c2, k, fixture.objective);
    benchmark::DoNotOptimize(c1);
  }
}
BENCHMARK(BM_OptimizedCrossover)->Arg(2)->Arg(4)->Arg(8);

void BM_Mutation(benchmark::State& state) {
  GaFixture fixture;
  Rng rng(4);
  Projection p = Projection::Random(32, 4, 10, rng);
  MutationOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MutateProjection(p, 10, options, rng));
  }
}
BENCHMARK(BM_Mutation);

void BM_ConvergenceCheck(benchmark::State& state) {
  GaFixture fixture;
  Rng rng(5);
  const auto population = fixture.MakePopulation(100, 4, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PopulationConverged(population));
  }
}
BENCHMARK(BM_ConvergenceCheck);

// End-to-end GA throughput vs. thread count. Same seed at every arity, so
// the runs do identical search work (determinism contract) and the timing
// difference is pure parallel speedup. Speedup saturates at
// min(threads, restarts, hardware cores); on a multicore box the 4-thread
// run on this 4-restart workload should be >= 2x the 1-thread run.
void BM_EvolutionarySearch(benchmark::State& state) {
  GaFixture fixture;
  EvolutionaryOptions options;
  options.target_dim = 4;
  options.num_projections = 20;
  options.population_size = 60;
  options.max_generations = 12;
  options.stagnation_generations = 0;
  options.restarts = 4;
  options.seed = 7;
  options.num_threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(EvolutionarySearch(fixture.objective, options));
  }
}
BENCHMARK(BM_EvolutionarySearch)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// Same workload with trace spans disabled: the instrumentation-overhead
// baseline. The spans-on run above must stay within ~2% of this one —
// spans wrap phases, not hot loops, and counters publish once per search,
// so the delta is expected to be measurement noise.
void BM_EvolutionarySearchSpansOff(benchmark::State& state) {
  GaFixture fixture;
  EvolutionaryOptions options;
  options.target_dim = 4;
  options.num_projections = 20;
  options.population_size = 60;
  options.max_generations = 12;
  options.stagnation_generations = 0;
  options.restarts = 4;
  options.seed = 7;
  options.num_threads = static_cast<size_t>(state.range(0));
  obs::Tracer::Global().SetEnabled(false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EvolutionarySearch(fixture.objective, options));
  }
  obs::Tracer::Global().SetEnabled(true);
}
BENCHMARK(BM_EvolutionarySearchSpansOff)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime();

void BM_FullGeneration(benchmark::State& state) {
  GaFixture fixture;
  Rng rng(6);
  auto population = fixture.MakePopulation(100, 4, rng);
  std::vector<Individual> offspring;
  MutationOptions mutation;
  for (auto _ : state) {
    RankRouletteSelection(population, rng, &offspring);
    population.swap(offspring);
    CrossoverPopulation(population, CrossoverKind::kOptimized, 4,
                        fixture.objective, rng);
    MutatePopulation(population, 4, mutation, fixture.objective, rng);
    benchmark::DoNotOptimize(population);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 100);
}
BENCHMARK(BM_FullGeneration);

}  // namespace
}  // namespace hido

BENCHMARK_MAIN();
