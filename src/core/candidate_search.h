#ifndef HIDO_CORE_CANDIDATE_SEARCH_H_
#define HIDO_CORE_CANDIDATE_SEARCH_H_

// The *literal* Figure 2 algorithm: bottom-up candidate materialization.
//
//   R_1 = Q_1 = all d*phi one-dimensional ranges
//   for i = 2..k:  R_i = R_{i-1} (+) Q_1     (concatenate with ranges from
//                                             dimensions above the last one)
//   report the m most negative sparsity coefficients in R_k
//
// BruteForceSearch (core/brute_force.h) walks the identical candidate tree
// depth-first and is what production code should use; this module exists
// (a) as a faithful rendering of the paper's pseudocode, (b) as an
// independent oracle the DFS is tested against, and (c) to make the
// pseudocode's hidden cost measurable: |R_i| = C(d,i)*phi^i candidates are
// held in memory at level i, which is exactly why the paper's own musk run
// "was unable to terminate". A candidate budget turns that blow-up into a
// clean error instead of an OOM.

#include <cstdint>

#include "core/best_set.h"
#include "core/objective.h"

namespace hido {

/// Options for CandidateSetSearch.
struct CandidateSearchOptions {
  size_t target_dim = 3;        ///< k
  size_t num_projections = 20;  ///< m
  /// Hard cap on any |R_i|; exceeded => the run stops and reports failure
  /// (0 = unlimited, at your own risk).
  uint64_t max_candidates = 20'000'000;
};

/// Outcome counters.
struct CandidateSearchStats {
  /// |R_i| per level, i = 1..k.
  std::vector<uint64_t> level_sizes;
  /// Peak bytes held by candidate sets (conditions only).
  uint64_t peak_candidate_bytes = 0;
  bool completed = false;  ///< ran all levels without stopping early
  double seconds = 0.0;    ///< wall-clock for the search
};

/// Result of a run.
struct CandidateSearchResult {
  std::vector<ScoredProjection> best;  ///< most negative sparsity first
  CandidateSearchStats stats;          ///< counters for this run
};

/// Runs the materialized bottom-up search. Returns completed=false (with an
/// empty best set) when max_candidates is exceeded.
CandidateSearchResult CandidateSetSearch(SparsityObjective& objective,
                                         const CandidateSearchOptions& options);

}  // namespace hido

#endif  // HIDO_CORE_CANDIDATE_SEARCH_H_
