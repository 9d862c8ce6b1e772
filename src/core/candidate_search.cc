#include "core/candidate_search.h"

#include <algorithm>

#include "common/macros.h"
#include "common/timer.h"

namespace hido {

namespace {

// One materialized candidate: its conditions, ascending by dimension. The
// last condition's dimension bounds what Q_1 elements may extend it.
using Candidate = std::vector<DimRange>;

uint64_t CandidateBytes(const std::vector<Candidate>& candidates,
                        size_t level) {
  return static_cast<uint64_t>(candidates.size()) *
         (sizeof(Candidate) + level * sizeof(DimRange));
}

}  // namespace

CandidateSearchResult CandidateSetSearch(
    SparsityObjective& objective, const CandidateSearchOptions& options) {
  const GridModel& grid = objective.grid();
  HIDO_CHECK(options.target_dim >= 1);
  HIDO_CHECK_MSG(options.target_dim <= grid.num_dims(),
                 "target_dim %zu exceeds dimensionality %zu",
                 options.target_dim, grid.num_dims());
  HIDO_CHECK(options.num_projections >= 1);

  StopWatch watch;
  CandidateSearchResult result;
  const size_t d = grid.num_dims();
  const size_t phi = grid.phi();
  const size_t k = options.target_dim;

  // R_1 = Q_1: every (dimension, range) pair. Only dimensions low enough to
  // leave k-1 higher ones are viable prefixes.
  std::vector<Candidate> current;
  current.reserve((d - (k - 1)) * phi);
  for (uint32_t dim = 0; dim + (k - 1) < d; ++dim) {
    for (uint32_t cell = 0; cell < phi; ++cell) {
      current.push_back({{dim, cell}});
    }
  }
  result.stats.level_sizes.push_back(current.size());
  result.stats.peak_candidate_bytes =
      std::max(result.stats.peak_candidate_bytes, CandidateBytes(current, 1));

  // R_i = R_{i-1} (+) Q_1.
  for (size_t level = 2; level <= k; ++level) {
    std::vector<Candidate> next;
    for (const Candidate& candidate : current) {
      const uint32_t last_dim = candidate.back().dim;
      // Concatenate only with ranges from higher dimensions, leaving room
      // for the remaining k - level ones.
      for (uint32_t dim = last_dim + 1; dim + (k - level) < d; ++dim) {
        for (uint32_t cell = 0; cell < phi; ++cell) {
          if (options.max_candidates != 0 &&
              next.size() >= options.max_candidates) {
            result.stats.level_sizes.push_back(next.size());
            result.stats.completed = false;
            result.stats.seconds = watch.ElapsedSeconds();
            return result;  // the paper's musk outcome, as a clean failure
          }
          Candidate extended = candidate;
          extended.push_back({dim, cell});
          next.push_back(std::move(extended));
        }
      }
    }
    current.swap(next);
    result.stats.level_sizes.push_back(current.size());
    result.stats.peak_candidate_bytes = std::max(
        result.stats.peak_candidate_bytes, CandidateBytes(current, level));
  }

  // Score every element of R_k.
  BestSet best(options.num_projections);
  for (const Candidate& candidate : current) {
    const CubeEvaluation eval = objective.EvaluateConditions(candidate);
    if (eval.count > 0 && best.WouldAccept(eval.sparsity)) {
      ScoredProjection scored;
      scored.projection = Projection::FromConditions(d, candidate);
      scored.count = eval.count;
      scored.sparsity = eval.sparsity;
      best.Offer(scored);
    }
  }

  result.best = best.Sorted();
  result.stats.completed = true;
  result.stats.seconds = watch.ElapsedSeconds();
  return result;
}

}  // namespace hido
