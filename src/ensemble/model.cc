#include "ensemble/model.h"

#include <cmath>
#include <limits>

#include "common/macros.h"
#include "core/detector.h"
#include "ensemble/ensemble_detector.h"
#include "obs/metrics.h"

namespace hido {
namespace ensemble {

namespace {

// A model's shared part: what a fit on `data` left in `grid`.
Model SharedPart(const GridModel& grid, const Dataset& data) {
  Model model;
  model.quantizer = grid.quantizer();
  model.num_points = grid.num_points();
  for (size_t c = 0; c < data.num_cols(); ++c) {
    model.column_names.push_back(data.ColumnName(c));
  }
  return model;
}

}  // namespace

Model Model::FromDetection(const DetectionResult& result,
                           const Dataset& data) {
  Model model = SharedPart(result.grid, data);
  model.members.emplace_back().projections = result.report.projections;
  return model;
}

Model Model::FromEnsemble(const EnsembleDetectionResult& result,
                          const Dataset& data) {
  Model model = SharedPart(result.grid, data);
  model.combiner = result.combiner;
  for (const EnsembleMemberResult& fitted : result.members) {
    model.members.push_back(
        {fitted.kind, fitted.seed, fitted.score_scale, fitted.projections});
  }
  return model;
}

size_t Model::num_projections() const {
  size_t total = 0;
  for (const ModelMember& member : members) {
    total += member.projections.size();
  }
  return total;
}

ModelScore Model::Score(const std::vector<double>& values) const {
  HIDO_CHECK_MSG(values.size() == quantizer.num_cols(),
                 "point has %zu coordinates, model expects %zu",
                 values.size(), quantizer.num_cols());
  // Cells are quantized on first use and kept for the rest of the call, so
  // each dimension costs at most one CellOf however many members and cubes
  // test it. Neither marker equals a condition's cell (< phi < kDontCare),
  // so a NaN coordinate never matches.
  constexpr uint32_t kUnquantized = std::numeric_limits<uint32_t>::max();
  constexpr uint32_t kMissing = kUnquantized - 1;
  std::vector<uint32_t> cells(values.size(), kUnquantized);
  auto cell_of = [&](uint32_t dim) {
    uint32_t& cell = cells[dim];
    if (cell == kUnquantized) {
      cell = std::isnan(values[dim]) ? kMissing
                                     : quantizer.CellOf(dim, values[dim]);
    }
    return cell;
  };
  auto score_member = [&](const ModelMember& member) {
    PointScore score;
    for (const ScoredProjection& scored : member.projections) {
      bool covered = scored.projection.Dimensionality() > 0;
      for (const DimRange& cond : scored.projection.Conditions()) {
        if (cell_of(cond.dim) != cond.cell) {
          covered = false;
          break;
        }
      }
      if (!covered) continue;
      if (score.covering_projections == 0 ||
          scored.sparsity < score.sparsity_score) {
        score.sparsity_score = scored.sparsity;
      }
      ++score.covering_projections;
    }
    return score;
  };

  if (!is_ensemble()) {
    HIDO_CHECK_MSG(members.size() == 1,
                   "a single-fit model has one member, not %zu",
                   members.size());
    const PointScore score = score_member(members.front());
    return {score.sparsity_score, score.covering_projections};
  }
  // GetCounter locks a map; the returned reference is stable for the
  // process, so resolve it once and keep the per-score hot path lock-free.
  static obs::Counter& points_scored =
      obs::MetricsRegistry::Global().GetCounter("ensemble.points_scored");
  std::vector<PointScore> member_scores;
  std::vector<double> scales;
  member_scores.reserve(members.size());
  scales.reserve(members.size());
  for (const ModelMember& member : members) {
    member_scores.push_back(score_member(member));
    scales.push_back(member.score_scale);
  }
  points_scored.Add();
  const EnsemblePointScore combined =
      CombinePoint(*combiner, member_scores, scales);
  return {combined.score, combined.covering_projections};
}

}  // namespace ensemble
}  // namespace hido
