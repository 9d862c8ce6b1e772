#ifndef HIDO_CORE_BRUTE_FORCE_H_
#define HIDO_CORE_BRUTE_FORCE_H_

// The exhaustive baseline of Figure 2: examine every k-dimensional cube
// (every combination of k dimensions and a grid range on each) and retain
// the m with the most negative sparsity coefficients.
//
// The paper formulates this as bottom-up candidate generation,
// R_i = R_{i-1} (+) Q_1, concatenating only ranges from dimensions not yet
// in the projection. Materializing R_i is memory-hopeless (|R_k| =
// C(d,k)·phi^k); this implementation walks the identical candidate tree
// depth-first with dimensions in increasing order — each R_k element is
// visited exactly once — carrying the partial cube's membership bitset down
// the stack so each node costs one AND+popcount.
//
// Pruning: a cube with zero points has only zero-point extensions, and
// empty cubes are never reported (core/best_set.h), so the subtree below
// an empty partial cube is skipped. This does not change the returned set:
// tests hold it to CandidateSetSearch, which scores every cube.
//
// The depth-first walk visits each cube exactly once and counts it
// directly on the carried bitset, not through SparsityObjective's counting,
// so it adds nothing to the objective's evaluation tally. Every leaf is
// still scored by SparsityObjective::Sparsity, the formula the bottom-up
// CandidateSetSearch variant and the evolutionary search score with.

#include <cstdint>

#include "common/run_control.h"
#include "core/best_set.h"
#include "core/objective.h"

namespace hido {

/// Options for BruteForceSearch.
struct BruteForceOptions {
  size_t target_dim = 3;       ///< k: dimensionality of reported cubes
  size_t num_projections = 20; ///< m: cubes to report
  /// Optional cooperative stop (deadline/SIGINT/failpoint), polled at root
  /// granularity and every 1024 visited nodes within a subtree; the only
  /// thing that ends the run early, with a best-so-far result. The paper
  /// could not finish musk (160 dims) without one. Nullable; must outlive
  /// the call.
  const StopToken* stop = nullptr;
  /// Worker threads. The enumeration partitions at the root level (lowest
  /// condition of each cube), which is embarrassingly parallel; workers
  /// keep private best-sets that are merged at the end. Because BestSet
  /// breaks exact sparsity ties on the packed projection key, a completed
  /// run is bit-deterministic at any thread count.
  size_t num_threads = 1;
};

/// Outcome counters for the scaling study.
struct BruteForceStats {
  uint64_t cubes_evaluated = 0;   ///< k-dimensional leaves scored
  uint64_t nodes_visited = 0;     ///< partial cubes expanded
  uint64_t subtrees_pruned = 0;   ///< empty partial cubes not expanded
  bool completed = false;         ///< false when the stop token fired
  /// The token's cause when completed == false (kNone otherwise).
  StopCause stop_cause = StopCause::kNone;  ///< why the run stopped early
  double seconds = 0.0;                     ///< wall-clock for the run
};

/// Result of a search run (shared with the evolutionary algorithm).
struct BruteForceResult {
  std::vector<ScoredProjection> best;  ///< most negative sparsity first
  BruteForceStats stats;               ///< counters for this run
};

/// Runs the exhaustive search. `objective` supplies grid and scoring; its
/// const Sparsity() is shared by every worker.
BruteForceResult BruteForceSearch(const SparsityObjective& objective,
                                  const BruteForceOptions& options);

/// Number of k-dimensional cubes in a (d, phi) grid: C(d,k) * phi^k, the
/// search-space size quoted in §3 (7*10^7 at d=20, k=4, phi=10). Saturates
/// at +infinity on overflow.
double BruteForceSearchSpace(size_t d, size_t k, size_t phi);

}  // namespace hido

#endif  // HIDO_CORE_BRUTE_FORCE_H_
