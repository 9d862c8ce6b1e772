#include "core/postprocess.h"

#include <algorithm>
#include <map>

#include "common/macros.h"
#include "common/string_util.h"
#include "grid/sparsity.h"

namespace hido {

OutlierReport ExtractOutliers(const GridModel& grid,
                              std::vector<ScoredProjection> projections) {
  OutlierReport report;
  report.projections = std::move(projections);

  std::map<size_t, OutlierRecord> by_row;
  for (size_t p = 0; p < report.projections.size(); ++p) {
    const ScoredProjection& scored = report.projections[p];
    if (scored.projection.Dimensionality() == 0) continue;
    const std::vector<uint32_t> covered =
        grid.CoveredPoints(scored.projection.Conditions());
    for (uint32_t row : covered) {
      OutlierRecord& record = by_row[row];
      record.row = row;
      record.projection_ids.push_back(p);
      if (record.projection_ids.size() == 1 ||
          scored.sparsity < record.best_sparsity) {
        record.best_sparsity = scored.sparsity;
      }
    }
  }

  report.outliers.reserve(by_row.size());
  for (auto& [row, record] : by_row) {
    HIDO_UNUSED(row);
    report.outliers.push_back(std::move(record));
  }
  std::sort(report.outliers.begin(), report.outliers.end(),
            [](const OutlierRecord& a, const OutlierRecord& b) {
              return a.best_sparsity != b.best_sparsity
                         ? a.best_sparsity < b.best_sparsity
                         : a.row < b.row;
            });
  return report;
}

std::string ExplainOutlier(const OutlierReport& report, size_t outlier_index,
                           const GridModel& grid, const Dataset& data) {
  HIDO_CHECK(outlier_index < report.outliers.size());
  const OutlierRecord& record = report.outliers[outlier_index];
  std::string out = StrFormat("row %zu (best sparsity %.3f):\n", record.row,
                              record.best_sparsity);
  for (size_t pid : record.projection_ids) {
    const ScoredProjection& scored = report.projections[pid];
    // The paper-style "*3*9" string is unreadable past a few dozen
    // dimensions; switch to a compact condition list there.
    std::string rendering;
    if (scored.projection.num_dims() <= 32) {
      rendering = scored.projection.ToString();
    } else {
      for (const DimRange& cond : scored.projection.Conditions()) {
        rendering += StrFormat("%s%s=%u", rendering.empty() ? "{" : ", ",
                               data.ColumnName(cond.dim).c_str(),
                               cond.cell + 1);
      }
      rendering += "}";
    }
    // One-sided significance of the deviation — exact binomial tail, not
    // the section 1.3 normal approximation (which is loose precisely for
    // sparse cubes; see common/stats.h BinomialLowerTail).
    const SparsityModel model(grid.num_points(), grid.phi());
    const size_t dims = scored.projection.Dimensionality();
    out += StrFormat(
        "  projection %s  S=%.3f  n=%zu  (significance %.4f%%)\n",
        rendering.c_str(), scored.sparsity, scored.count,
        100.0 * (1.0 - model.ExactSignificance(scored.count, dims)));
    for (const DimRange& cond : scored.projection.Conditions()) {
      const auto [lo, hi] = grid.quantizer().CellBounds(cond.dim, cond.cell);
      const double value = data.GetOr(record.row, cond.dim, 0.0);
      out += StrFormat("    %s = %.4g  in range %u of %zu  [%.4g, %.4g)\n",
                       data.ColumnName(cond.dim).c_str(), value,
                       cond.cell + 1, grid.phi(), lo, hi);
    }
  }
  return out;
}

}  // namespace hido
