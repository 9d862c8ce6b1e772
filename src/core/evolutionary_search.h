#ifndef HIDO_CORE_EVOLUTIONARY_SEARCH_H_
#define HIDO_CORE_EVOLUTIONARY_SEARCH_H_

// The evolutionary outlier-search algorithm (Figure 3): a population of
// projection strings is refined by rank-roulette selection, crossover
// (two-point or optimized), and dimensionality-preserving mutation, while a
// BestSet tracks the m most abnormally sparse cubes ever encountered. The
// run terminates on De Jong convergence, the generation cap, stagnation of
// the best set, or the caller's stop token.

#include <cstdint>
#include <functional>
#include <string>

#include "common/run_control.h"
#include "core/best_set.h"
#include "core/genetic/crossover.h"
#include "core/genetic/individual.h"
#include "core/genetic/mutation.h"
#include "core/objective.h"

namespace hido {

struct EvolutionCheckpoint;  // core/search_checkpoint.h

/// Options for EvolutionarySearch.
struct EvolutionaryOptions {
  /// Largest population_size to accept from outside input. An individual
  /// is a 56-byte record plus a heap array of 2 bytes per dimension, about
  /// 150 bytes over 40 dimensions, so one copy of a population at this cap
  /// is about 10 MB. A running restart holds a few copies (parents,
  /// selected offspring, a checkpoint snapshot).
  static constexpr size_t kMaxPopulation = size_t{1} << 16;
  /// Largest restarts to accept from outside input. Every restart keeps
  /// its outcome (best set of m projections) until the merge, and a
  /// checkpoint one snapshot per restart: about 3 KB each at m = 20 over
  /// 40 dimensions, so about 50 MB at this cap.
  static constexpr size_t kMaxRestarts = size_t{1} << 14;

  size_t target_dim = 3;        ///< k
  size_t num_projections = 20;  ///< m
  size_t population_size = 100; ///< p
  CrossoverKind crossover = CrossoverKind::kOptimized;  ///< recombination op
  MutationOptions mutation;     ///< p1 = p2 per the paper
  /// De Jong gene-convergence threshold (0.95 in the original).
  double convergence_threshold = 0.95;
  size_t max_generations = 200;  ///< hard generation cap per restart
  /// Stop when the best set has not improved for this many generations
  /// (0 disables).
  size_t stagnation_generations = 30;
  /// Independent GA runs sharing one best set. The paper runs the GA once;
  /// restarts are an engineering extension that recovers coverage when the
  /// population converges onto a single sparse region while several
  /// unrelated regions exist (common once m is large). Each restart reseeds
  /// the population; the stop token below applies to the whole batch.
  size_t restarts = 1;
  /// Elitism (engineering extension, 0 = off = paper-faithful): the e best
  /// individuals of each generation survive into the next unchanged,
  /// replacing its worst members — selection/crossover/mutation can then
  /// never lose the current best string. Must be < population_size.
  size_t elitism = 0;
  /// Optional cooperative stop (deadline/SIGINT/failpoint), polled at
  /// restart entry and at every generation boundary; the only thing that
  /// ends the batch early, with a best-so-far result
  /// (`stats.completed == false`). Nullable; must outlive the call.
  const StopToken* stop = nullptr;
  /// When non-empty, periodically writes a resumable snapshot of the whole
  /// search (per-restart RNG states, populations, best sets, stats) to this
  /// path with an atomic write-rename. Snapshots are taken at generation
  /// boundaries, when a restart finishes, and when a stop fires. Write
  /// failures are logged, never fatal.
  std::string checkpoint_path;
  /// Generation stride between periodic snapshots of a running restart.
  size_t checkpoint_every_generations = 10;
  /// Resume from a previously written checkpoint (nullable; must outlive
  /// the call and validate against these options and the grid — see
  /// ValidateCheckpoint). Finished restarts are replayed from the snapshot;
  /// interrupted ones continue from their saved generation on the exact
  /// RNG stream position, so the final result is bit-identical to the
  /// uninterrupted run at any thread count, and so are its search.*
  /// totals.
  const EvolutionCheckpoint* resume = nullptr;
  uint64_t seed = 42;  ///< master seed for all restart streams
  /// Worker threads (0 = hardware concurrency). Parallelism is exploited
  /// along two axes on the shared ThreadPool: restarts run as independent
  /// tasks, and within a restart the population's fitness evaluations fan
  /// out over one SparsityObjective per worker.
  ///
  /// Determinism contract: unless a stop fires, a fixed seed yields a
  /// bit-identical `EvolutionResult::best` (projections, counts, sparsity
  /// coefficients) for every value of num_threads. Each restart draws from
  /// its own RNG stream (Rng::ForStream(seed, run)), owns its BestSet, and
  /// the per-restart sets are merged in restart order; the parallel fitness
  /// evaluations are pure, so scheduling cannot leak into the result. A
  /// deadline is inherently wall-clock-dependent and voids the contract
  /// when it fires.
  size_t num_threads = 1;
};

/// Why the run stopped.
enum class StopReason {
  kConverged,
  kMaxGenerations,
  kStagnation,
  kTimeBudget,  ///< the StopToken's deadline expired
  kCancelled,   ///< StopToken cancel (SIGINT, failpoint, caller)
};

/// Outcome counters. Aggregated over every restart and every worker
/// thread, so the numbers stay truthful under concurrency.
struct EvolutionStats {
  size_t generations = 0;  ///< summed across restarts
  /// Stop reason of the last restart (restart index restarts-1); when a
  /// deadline or cancel interrupted the batch, the interruption's reason.
  StopReason stop_reason = StopReason::kMaxGenerations;
  /// False when a deadline/cancel interrupted the batch before every
  /// restart ran its course; `best` still holds everything found so far.
  bool completed = true;
  /// Which stop source fired when completed == false (kNone otherwise).
  StopCause stop_cause = StopCause::kNone;  ///< why the batch stopped early
  double seconds = 0.0;                     ///< wall-clock for the batch
  uint64_t evaluations = 0;  ///< objective evaluations consumed by this run
  /// Genetic-operator totals, summed across restarts. Selections count
  /// individuals drawn by rank-roulette; crossovers count pairings;
  /// mutations count individuals actually changed (and re-evaluated).
  /// Deterministic for a fixed seed at any thread count, and a resumed run
  /// reports the same cumulative totals as the uninterrupted one.
  uint64_t crossovers = 0;  ///< crossover operations performed
  uint64_t mutations = 0;   ///< mutation operations performed
  uint64_t selections = 0;  ///< selection operations performed
  /// Restarts that ran to their natural stopping rule (not interrupted).
  size_t restarts_completed = 0;
};

/// Result of an evolutionary run.
struct EvolutionResult {
  std::vector<ScoredProjection> best;  ///< most negative sparsity first
  EvolutionStats stats;                ///< counters for this batch
};

/// Per-generation observer (for traces/tests): generation index, current
/// population, best set so far (the restart-local set). Providing an
/// observer forces restarts to run sequentially so the callback sees one
/// ordered generation stream; population evaluation still fans out.
using GenerationCallback = std::function<void(
    size_t, const std::vector<Individual>&, const BestSet&)>;

/// Runs the evolutionary search against `objective`'s grid and expectation
/// model. Evaluations performed on the private per-worker objectives are
/// folded into `objective`'s tally before returning.
EvolutionResult EvolutionarySearch(
    SparsityObjective& objective, const EvolutionaryOptions& options,
    const GenerationCallback& on_generation = nullptr);

}  // namespace hido

#endif  // HIDO_CORE_EVOLUTIONARY_SEARCH_H_
