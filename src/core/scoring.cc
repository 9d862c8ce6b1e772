#include "core/scoring.h"

#include <algorithm>
#include <numeric>

namespace hido {

std::vector<PointScore> ScoreAllPoints(
    const GridModel& grid,
    const std::vector<ScoredProjection>& projections) {
  std::vector<PointScore> scores(grid.num_points());
  for (size_t row = 0; row < scores.size(); ++row) {
    scores[row].row = row;
  }

  for (const ScoredProjection& scored : projections) {
    if (scored.projection.Dimensionality() == 0) continue;
    for (uint32_t row : grid.CoveredPoints(scored.projection.Conditions())) {
      PointScore& score = scores[row];
      if (score.covering_projections == 0 ||
          scored.sparsity < score.sparsity_score) {
        score.sparsity_score = scored.sparsity;
      }
      ++score.covering_projections;
    }
  }
  return scores;
}

std::vector<size_t> RankRows(const std::vector<PointScore>& scores) {
  std::vector<size_t> order(scores.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const PointScore& sa = scores[a];
    const PointScore& sb = scores[b];
    const bool a_covered = sa.covering_projections > 0;
    const bool b_covered = sb.covering_projections > 0;
    if (a_covered != b_covered) return a_covered;
    if (sa.sparsity_score != sb.sparsity_score) {
      return sa.sparsity_score < sb.sparsity_score;
    }
    if (sa.covering_projections != sb.covering_projections) {
      return sa.covering_projections > sb.covering_projections;
    }
    return sa.row < sb.row;
  });
  return order;
}

}  // namespace hido
