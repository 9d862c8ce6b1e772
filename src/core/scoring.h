#ifndef HIDO_CORE_SCORING_H_
#define HIDO_CORE_SCORING_H_

// Per-point outlier scores derived from a set of abnormal projections.
//
// The paper's output is a *set* (points covered by the reported cubes);
// applications usually want a *ranking*. The natural score of a point is
// the most negative sparsity coefficient among the reported cubes covering
// it (more negative = stronger outlier); uncovered points score 0. A
// secondary signal — how many reported cubes implicate the point — breaks
// ties and measures multi-view abnormality (the paper's A-and-B-in-
// different-views story).

#include <vector>

#include "core/objective.h"
#include "grid/grid_model.h"

namespace hido {

/// Score of one point.
struct PointScore {
  size_t row = 0;  ///< dataset row index
  /// Most negative sparsity among covering cubes; 0 when uncovered.
  double sparsity_score = 0.0;
  /// Number of reported cubes covering the point.
  size_t covering_projections = 0;
};

/// Scores every point of the grid against `projections`. The returned
/// vector is indexed by row.
std::vector<PointScore> ScoreAllPoints(
    const GridModel& grid, const std::vector<ScoredProjection>& projections);

/// Rows ranked strongest-outlier first: ascending sparsity_score, ties by
/// more covering projections, then by row id. Uncovered points (score 0,
/// 0 projections) sort last.
std::vector<size_t> RankRows(const std::vector<PointScore>& scores);

}  // namespace hido

#endif  // HIDO_CORE_SCORING_H_
