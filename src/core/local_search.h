#ifndef HIDO_CORE_LOCAL_SEARCH_H_
#define HIDO_CORE_LOCAL_SEARCH_H_

// Single-solution search baselines for the projection problem.
//
// Section 2.1 of the paper positions the evolutionary algorithm against
// hill climbing, random search, and simulated annealing ("they use the
// essence of the techniques of all these methods in conjunction with
// recombination"). These three are implemented here over the same solution
// encoding, neighbourhood (the Type I/II mutation moves), objective, and
// BestSet so the comparison in bench/ablation_search_methods is apples to
// apples. All three report the m best non-empty cubes encountered anywhere
// during the run, exactly like the evolutionary search.
//
// Neighbourhood of a k-dimensional string: change one specified position's
// range (Type II move), or swap a specified position with a don't-care
// (Type I move) — the same moves the GA's mutation operator uses, so every
// method explores the identical landscape.

#include <cstdint>

#include "common/run_control.h"
#include "core/best_set.h"
#include "core/objective.h"
#include "core/projection.h"

namespace hido {

/// Which single-solution strategy LocalSearch runs.
enum class LocalSearchMethod {
  kRandomSearch,        ///< independent uniform samples
  kHillClimbing,        ///< steepest-accept with random restarts on stall
  kSimulatedAnnealing,  ///< Metropolis acceptance with geometric cooling
};

/// Options for LocalSearch.
struct LocalSearchOptions {
  LocalSearchMethod method = LocalSearchMethod::kHillClimbing;  ///< algorithm
  size_t target_dim = 3;        ///< k
  size_t num_projections = 20;  ///< m
  /// Total objective evaluations (the budget matched against GA runs).
  uint64_t max_evaluations = 50000;
  /// Hill climbing: restart after this many consecutive non-improving
  /// neighbour probes.
  size_t stall_limit = 64;
  /// Simulated annealing: initial temperature (in sparsity-coefficient
  /// units) and per-step geometric cooling factor.
  double initial_temperature = 2.0;  ///< annealing start temperature
  double cooling = 0.9995;           ///< geometric cooling factor
  uint64_t seed = 42;                ///< RNG seed
  /// Optional cooperative stop (deadline/SIGINT/failpoint), polled before
  /// the first evaluation and every kStopPollStride evaluations after it.
  /// A fired token ends the run with its best-so-far result
  /// (`stats.completed == false`). Nullable; must outlive the call.
  const StopToken* stop = nullptr;

  /// Evaluations between two polls of `stop`.
  static constexpr uint64_t kStopPollStride = 256;
};

/// Outcome counters.
struct LocalSearchStats {
  uint64_t evaluations = 0;  ///< objective evaluations performed
  size_t restarts = 0;       ///< hill climbing restarts taken
  uint64_t accepted_moves = 0;  ///< neighbour moves accepted
  double seconds = 0.0;         ///< wall-clock spent searching
  bool completed = true;  ///< false when `stop` fired before the budget ran out
};

/// Result of a run.
struct LocalSearchResult {
  std::vector<ScoredProjection> best;  ///< most negative sparsity first
  LocalSearchStats stats;              ///< counters for this run
};

/// The neighbour move of hill climbing and annealing: overwrites `*next`
/// with a uniformly random neighbour of `current`, a Type II move
/// (re-randomize one range in [0, phi)) or, when a don't-care exists, a
/// Type I move (relocate one condition to an unused dimension) with equal
/// probability. With `*next` reused at the string's length it allocates
/// nothing. Precondition: current.Dimensionality() >= 1.
void LocalSearchNeighbor(const Projection& current, size_t phi, Rng& rng,
                         Projection* next);

/// Runs the selected single-solution search against `objective`.
LocalSearchResult LocalSearch(SparsityObjective& objective,
                              const LocalSearchOptions& options);

}  // namespace hido

#endif  // HIDO_CORE_LOCAL_SEARCH_H_
