#include "core/evolutionary_search.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

#include "common/logging.h"
#include "common/macros.h"
#include "common/mutex.h"
#include "common/parallel.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/genetic/convergence.h"
#include "core/genetic/selection.h"
#include "core/search_checkpoint.h"
#include "grid/cube_counter.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hido {

namespace {

// The search-level stop reason reported when a StopPoller fires.
StopReason ReasonFromCause(StopCause cause) {
  return cause == StopCause::kDeadline ? StopReason::kTimeBudget
                                       : StopReason::kCancelled;
}

// Offers every feasible individual to the best set; returns true when the
// set improved.
bool OfferPopulation(const std::vector<Individual>& population,
                     BestSet& best) {
  bool improved = false;
  for (const Individual& individual : population) {
    if (!individual.feasible) continue;
    if (!best.WouldAccept(individual.sparsity)) continue;
    ScoredProjection scored;
    scored.projection = individual.projection;
    scored.count = individual.count;
    scored.sparsity = individual.sparsity;
    improved |= best.Offer(scored);
  }
  return improved;
}

// Per-worker fitness-evaluation scratch for one restart: a CubeCounter
// (stats + source scratch are single-threaded state) and objective per
// worker, all over the shared read-only grid. Worker 0 is the restart's
// own base objective. The private counters' Stats are absorbed at the end.
class EvalScratch {
 public:
  EvalScratch(SparsityObjective& base, size_t workers) {
    objectives_.push_back(&base);
    for (size_t w = 1; w < workers; ++w) {
      counters_.push_back(std::make_unique<CubeCounter>(base.grid()));
      owned_.push_back(std::make_unique<SparsityObjective>(
          *counters_.back(), base.expectation()));
      objectives_.push_back(owned_.back().get());
    }
  }

  const std::vector<SparsityObjective*>& objectives() const {
    return objectives_;
  }

  // Evaluations performed so far across the base and every private worker
  // (for snapshots taken before the final AbsorbIntoBase).
  uint64_t TotalEvaluations() const {
    uint64_t total = 0;
    for (const SparsityObjective* objective : objectives_) {
      total += objective->num_evaluations();
    }
    return total;
  }

  // Counter statistics so far across the base and every private worker.
  CubeCounter::Stats CombinedCounterStats() const {
    CubeCounter::Stats stats = objectives_.front()->counter().stats();
    for (const auto& counter : counters_) stats += counter->stats();
    return stats;
  }

  // Folds the private workers' evaluation counts and counter statistics
  // into the base objective, so the restart's totals are truthful.
  void AbsorbIntoBase() {
    SparsityObjective& base = *objectives_.front();
    for (const auto& objective : owned_) {
      base.AddEvaluations(objective->num_evaluations());
    }
    for (const auto& counter : counters_) {
      base.counter().AbsorbStats(counter->stats());
    }
  }

 private:
  std::vector<std::unique_ptr<CubeCounter>> counters_;
  std::vector<std::unique_ptr<SparsityObjective>> owned_;
  std::vector<SparsityObjective*> objectives_;
};

// Serializes concurrent per-restart snapshot updates into whole-file
// atomic rewrites. Checkpointing is best-effort: write failures are
// logged, never fatal to the search.
//
// The in-memory state (`checkpoint_`) and the writer state
// (`written_version_`) are guarded separately so the disk write happens
// outside `mu_`: a slow write used to stall every other restart at its
// next generation boundary (they all block in Update). Updates are
// versioned under `mu_` and the writer skips any snapshot older than one
// already written, so concurrent writers can never regress the file.
class CheckpointSink {
 public:
  CheckpointSink(EvolutionCheckpoint initial, std::string path)
      : checkpoint_(std::move(initial)), path_(std::move(path)) {}

  void Update(size_t run, RestartCheckpoint state)
      HIDO_LOCKS_EXCLUDED(mu_, write_mu_) {
    EvolutionCheckpoint snapshot;
    uint64_t version = 0;
    {
      MutexLock lock(mu_);
      checkpoint_.runs[run] = std::move(state);
      version = ++version_;
      snapshot = checkpoint_;
    }
    MutexLock write_lock(write_mu_);
    if (version <= written_version_) return;  // a newer snapshot is on disk
    written_version_ = version;
    const Status status = SaveCheckpointAtomic(snapshot, path_);
    if (status.ok()) {
      obs::MetricsRegistry::Global().GetCounter("checkpoint.saves").Add(1);
    } else {
      obs::MetricsRegistry::Global()
          .GetCounter("checkpoint.save_failures")
          .Add(1);
      HIDO_LOG_WARNING("checkpoint write failed: %s",
                       status.ToString().c_str());
    }
  }

 private:
  Mutex mu_;
  EvolutionCheckpoint checkpoint_ HIDO_GUARDED_BY(mu_);
  uint64_t version_ HIDO_GUARDED_BY(mu_) = 0;
  Mutex write_mu_ HIDO_ACQUIRED_AFTER(mu_);
  uint64_t written_version_ HIDO_GUARDED_BY(write_mu_) = 0;
  const std::string path_;
};

// Everything one restart produces; merged by the caller in restart order.
struct RestartOutcome {
  std::vector<ScoredProjection> best;
  size_t generations = 0;
  StopReason stop_reason = StopReason::kMaxGenerations;
  bool interrupted = false;  ///< a deadline/cancel cut this restart short
  uint64_t evaluations = 0;
  uint64_t crossovers = 0;
  uint64_t mutations = 0;
  uint64_t selections = 0;
  CubeCounter::Stats counter_stats;
};

// Context shared (read-only or thread-safe) by all restarts of one search.
struct SearchContext {
  const GridModel* grid;
  const EvolutionaryOptions* options;
  ExpectationModel expectation;
  size_t eval_threads;
  const StopPoller* poller;
  CheckpointSink* sink;  ///< nullable
};

// Replays a finished restart from its snapshot (no recomputation).
RestartOutcome OutcomeFromSnapshot(const RestartCheckpoint& snapshot) {
  RestartOutcome outcome;
  outcome.best = snapshot.best;
  outcome.generations = snapshot.generation;
  outcome.stop_reason = snapshot.stop_reason;
  outcome.evaluations = snapshot.evaluations;
  outcome.crossovers = snapshot.crossovers;
  outcome.mutations = snapshot.mutations;
  outcome.selections = snapshot.selections;
  outcome.counter_stats = snapshot.counter_stats;
  return outcome;
}

// Runs restart `run` to completion, resuming from `resume` when non-null
// (a kPartial snapshot). `on_generation` (nullable) receives generation
// indices offset by `generation_base` — only meaningful when restarts
// execute sequentially.
RestartOutcome RunRestart(const SearchContext& ctx, size_t run,
                          const RestartCheckpoint* resume,
                          const GenerationCallback& on_generation,
                          size_t generation_base) {
  const EvolutionaryOptions& options = *ctx.options;
  RestartOutcome outcome;

  // Restart-entry granularity: a stop that fired while earlier restarts
  // ran leaves this one untouched (the checkpoint keeps it unstarted).
  if (ctx.poller->ShouldStop()) {
    outcome.stop_reason = ReasonFromCause(ctx.poller->cause());
    outcome.interrupted = true;
    return outcome;
  }

  // Private evaluation state: restarts may run concurrently, so none of
  // them may touch the caller's counter. Results are unaffected — fitness
  // evaluation is pure.
  CubeCounter counter(*ctx.grid);
  SparsityObjective objective(counter, ctx.expectation);
  EvalScratch scratch(objective, ctx.eval_threads);
  const std::vector<SparsityObjective*>& evals = scratch.objectives();
  const size_t eval_workers = evals.size();

  // Per-restart RNG stream: bit-identical results no matter which thread
  // runs this restart, or in what order restarts are scheduled.
  Rng rng = Rng::ForStream(options.seed, run);
  BestSet best(options.num_projections, options.require_non_empty);
  std::vector<Individual> population;
  size_t start_generation = 0;
  size_t stagnant_generations = 0;
  // Work already accounted by the snapshot being resumed, folded back into
  // the outcome so resumed totals match the uninterrupted run.
  uint64_t base_evaluations = 0;
  CubeCounter::Stats base_counter_stats;
  // Operator tallies (cumulative: seeded from the snapshot on resume).
  uint64_t crossovers = 0;
  uint64_t mutations = 0;
  uint64_t selections = 0;

  if (resume != nullptr) {
    // Continue the interrupted run: same RNG position, same population
    // (fitness cached — no re-evaluation), same best set and stagnation.
    rng.RestoreState(resume->rng);
    population = resume->population;
    for (const ScoredProjection& scored : resume->best) best.Offer(scored);
    start_generation = resume->generation;
    stagnant_generations = resume->stagnant_generations;
    base_evaluations = resume->evaluations;
    base_counter_stats = resume->counter_stats;
    crossovers = resume->crossovers;
    mutations = resume->mutations;
    selections = resume->selections;
  } else {
    // Initial seed population of p random k-dimensional strings.
    // Projections are drawn serially (RNG order), evaluations fan out
    // (pure).
    population.resize(options.population_size);
    for (Individual& individual : population) {
      individual.projection = Projection::Random(
          ctx.grid->num_dims(), options.target_dim, ctx.grid->phi(), rng);
    }
    ParallelFor(population.size(), eval_workers,
                [&](size_t task, size_t worker) {
                  EvaluateIndividual(population[task], options.target_dim,
                                     *evals[worker]);
                });
    OfferPopulation(population, best);
  }

  // Snapshot of the state entering `generation` — taken before any of that
  // generation's RNG draws, so a resume replays the exact variate stream
  // of the uninterrupted run.
  auto partial_snapshot = [&](size_t generation) {
    RestartCheckpoint snapshot;
    snapshot.state = RestartCheckpoint::State::kPartial;
    snapshot.generation = generation;
    snapshot.stagnant_generations = stagnant_generations;
    snapshot.rng = rng.SaveState();
    snapshot.best = best.Sorted();
    snapshot.population = population;
    snapshot.evaluations = base_evaluations + scratch.TotalEvaluations();
    snapshot.crossovers = crossovers;
    snapshot.mutations = mutations;
    snapshot.selections = selections;
    snapshot.counter_stats = base_counter_stats;
    snapshot.counter_stats += scratch.CombinedCounterStats();
    return snapshot;
  };

  outcome.stop_reason = StopReason::kMaxGenerations;
  size_t generation = start_generation;
  for (; generation < options.max_generations; ++generation) {
    if (ctx.sink != nullptr && generation > start_generation &&
        options.checkpoint_every_generations > 0 &&
        generation % options.checkpoint_every_generations == 0) {
      ctx.sink->Update(run, partial_snapshot(generation));
    }
    // Generation granularity: the only in-restart poll point.
    if (ctx.poller->ShouldStop()) {
      outcome.stop_reason = ReasonFromCause(ctx.poller->cause());
      outcome.interrupted = true;
      if (ctx.sink != nullptr) {
        ctx.sink->Update(run, partial_snapshot(generation));
      }
      break;
    }

    // Optional elitism: remember the e fittest before breeding.
    std::vector<Individual> elites;
    if (options.elitism > 0) {
      elites = population;
      std::partial_sort(
          elites.begin(),
          elites.begin() + static_cast<ptrdiff_t>(options.elitism),
          elites.end(), [](const Individual& a, const Individual& b) {
            return a.sparsity < b.sparsity;
          });
      elites.resize(options.elitism);
    }

    population = RankRouletteSelection(population, rng);
    selections += population.size();
    CrossoverPopulation(population, options.crossover, options.target_dim,
                        evals, rng);
    crossovers += population.size() / 2;
    bool improved = OfferPopulation(population, best);
    mutations += MutatePopulation(population, options.target_dim,
                                  options.mutation, evals, rng);
    improved |= OfferPopulation(population, best);

    if (options.elitism > 0) {
      // Replace the worst offspring with the saved elites.
      std::partial_sort(
          population.begin(),
          population.begin() +
              static_cast<ptrdiff_t>(population.size() - options.elitism),
          population.end(), [](const Individual& a, const Individual& b) {
            return a.sparsity < b.sparsity;
          });
      std::copy(elites.begin(), elites.end(),
                population.end() - static_cast<ptrdiff_t>(options.elitism));
    }

    if (on_generation) on_generation(generation_base + generation,
                                     population, best);

    if (improved) {
      stagnant_generations = 0;
    } else if (options.stagnation_generations > 0 &&
               ++stagnant_generations >= options.stagnation_generations) {
      outcome.stop_reason = StopReason::kStagnation;
      ++generation;
      break;
    }
    if (PopulationConverged(population, options.convergence_threshold)) {
      outcome.stop_reason = StopReason::kConverged;
      ++generation;
      break;
    }
  }

  scratch.AbsorbIntoBase();
  counter.AbsorbStats(base_counter_stats);
  outcome.best = best.Sorted();
  outcome.generations = generation;
  outcome.evaluations = base_evaluations + objective.num_evaluations();
  outcome.crossovers = crossovers;
  outcome.mutations = mutations;
  outcome.selections = selections;
  outcome.counter_stats = counter.stats();

  if (ctx.sink != nullptr && !outcome.interrupted) {
    RestartCheckpoint snapshot;
    snapshot.state = RestartCheckpoint::State::kDone;
    snapshot.generation = outcome.generations;
    snapshot.stop_reason = outcome.stop_reason;
    snapshot.best = outcome.best;
    snapshot.evaluations = outcome.evaluations;
    snapshot.crossovers = outcome.crossovers;
    snapshot.mutations = outcome.mutations;
    snapshot.selections = outcome.selections;
    snapshot.counter_stats = outcome.counter_stats;
    ctx.sink->Update(run, std::move(snapshot));
  }
  return outcome;
}

}  // namespace

EvolutionResult EvolutionarySearch(SparsityObjective& objective,
                                   const EvolutionaryOptions& options,
                                   const GenerationCallback& on_generation) {
  const GridModel& grid = objective.grid();
  HIDO_CHECK(options.target_dim >= 1);
  HIDO_CHECK_MSG(options.target_dim <= grid.num_dims(),
                 "target_dim %zu exceeds dimensionality %zu",
                 options.target_dim, grid.num_dims());
  HIDO_CHECK_MSG(options.population_size >= 2,
                 "population must hold at least 2 strings");
  HIDO_CHECK(options.num_projections >= 1);
  HIDO_CHECK_MSG(options.elitism < options.population_size,
                 "elitism must leave room for offspring");

  StopWatch watch;
  const obs::TraceSpan span("evolutionary_search");
  const size_t restarts = std::max<size_t>(1, options.restarts);
  const size_t threads =
      options.num_threads == 0 ? HardwareThreads() : options.num_threads;

  // One polling contract for the whole batch: the caller's StopToken plus
  // the options' time budget on the injectable clock, both sticky.
  StopPoller poller(options.stop, options.clock,
                    options.time_budget_seconds);

  const EvolutionCheckpoint* resume = options.resume;
  if (resume != nullptr) {
    const Status valid =
        ValidateCheckpoint(*resume, options, GridShape::Of(grid),
                           objective.expectation());
    HIDO_CHECK_MSG(valid.ok(), "resume checkpoint rejected: %s",
                   valid.ToString().c_str());
  }

  std::unique_ptr<CheckpointSink> sink;
  if (!options.checkpoint_path.empty()) {
    sink = std::make_unique<CheckpointSink>(
        resume != nullptr
            ? *resume
            : MakeCheckpointShell(options, grid, objective.expectation()),
        options.checkpoint_path);
  }

  SearchContext ctx;
  ctx.grid = &grid;
  ctx.options = &options;
  ctx.expectation = objective.expectation();
  // Scratch allocation must not exceed what ParallelFor can actually
  // deploy — otherwise an oversized num_threads (e.g. a stray -1 cast to
  // size_t at a call site) would allocate a counter per requested thread.
  ctx.eval_threads =
      std::min({threads, options.population_size,
                ThreadPool::Shared().num_workers() + 1});
  ctx.poller = &poller;
  ctx.sink = sink.get();

  auto resume_for = [&](size_t run) -> const RestartCheckpoint* {
    if (resume == nullptr) return nullptr;
    const RestartCheckpoint& snapshot = resume->runs[run];
    return snapshot.state == RestartCheckpoint::State::kPartial ? &snapshot
                                                                : nullptr;
  };
  auto done_for = [&](size_t run) -> const RestartCheckpoint* {
    if (resume == nullptr) return nullptr;
    const RestartCheckpoint& snapshot = resume->runs[run];
    return snapshot.state == RestartCheckpoint::State::kDone ? &snapshot
                                                             : nullptr;
  };

  std::vector<RestartOutcome> outcomes(restarts);
  if (on_generation) {
    // An observer needs one ordered generation stream: run restarts
    // sequentially (the population evaluations inside still fan out).
    size_t generation_base = 0;
    for (size_t run = 0; run < restarts; ++run) {
      if (const RestartCheckpoint* done = done_for(run)) {
        outcomes[run] = OutcomeFromSnapshot(*done);
      } else {
        outcomes[run] = RunRestart(ctx, run, resume_for(run), on_generation,
                                   generation_base);
      }
      generation_base += outcomes[run].generations;
    }
  } else {
    // Restarts are independent tasks; outcomes land in fixed slots, so
    // scheduling order cannot affect the merged result.
    ParallelFor(restarts, threads, [&](size_t run, size_t) {
      if (const RestartCheckpoint* done = done_for(run)) {
        outcomes[run] = OutcomeFromSnapshot(*done);
      } else {
        outcomes[run] = RunRestart(ctx, run, resume_for(run), nullptr, 0);
      }
    });
  }

  // Merge in restart order (deterministic tie-breaking), and fold every
  // restart's evaluation/counter totals back into the caller's objective.
  EvolutionResult result;
  BestSet best(options.num_projections, options.require_non_empty);
  CubeCounter::Stats counter_totals;
  for (const RestartOutcome& outcome : outcomes) {
    for (const ScoredProjection& scored : outcome.best) {
      best.Offer(scored);
    }
    result.stats.generations += outcome.generations;
    result.stats.evaluations += outcome.evaluations;
    result.stats.crossovers += outcome.crossovers;
    result.stats.mutations += outcome.mutations;
    result.stats.selections += outcome.selections;
    if (!outcome.interrupted) ++result.stats.restarts_completed;
    counter_totals += outcome.counter_stats;
    objective.AddEvaluations(outcome.evaluations);
    objective.counter().AbsorbStats(outcome.counter_stats);
  }
  result.best = best.Sorted();

  // Publish this run's totals to the process-wide registry once, at
  // aggregation — never from the hot loops. All search.* and counter.*
  // counters are deterministic for a fixed seed at any thread count.
  {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    registry.GetCounter("search.runs").Add(1);
    registry.GetCounter("search.generations").Add(result.stats.generations);
    registry.GetCounter("search.evaluations").Add(result.stats.evaluations);
    registry.GetCounter("search.crossovers").Add(result.stats.crossovers);
    registry.GetCounter("search.mutations").Add(result.stats.mutations);
    registry.GetCounter("search.selections").Add(result.stats.selections);
    registry.GetCounter("search.restarts_completed")
        .Add(result.stats.restarts_completed);
    if (resume != nullptr) {
      registry.GetCounter("checkpoint.resumes").Add(1);
    }
    obs::Histogram& generations_histogram = registry.GetHistogram(
        "search.restart_generations",
        {1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0});
    for (const RestartOutcome& outcome : outcomes) {
      generations_histogram.Observe(
          static_cast<double>(outcome.generations));
    }
    registry.GetCounter("counter.queries").Add(counter_totals.queries);
  }
  result.stats.completed = !poller.stopped();
  result.stats.stop_cause = poller.cause();
  result.stats.stop_reason = poller.stopped()
                                 ? ReasonFromCause(poller.cause())
                                 : outcomes.back().stop_reason;
  result.stats.seconds = watch.ElapsedSeconds();
  HIDO_LOG_DEBUG("evolutionary search: %zu generations, %zu projections, "
                 "best %.3f",
                 result.stats.generations, result.best.size(),
                 result.best.empty() ? 0.0 : result.best.front().sparsity);
  return result;
}

}  // namespace hido
