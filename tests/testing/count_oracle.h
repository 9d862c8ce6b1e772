#ifndef HIDO_TESTS_TESTING_COUNT_ORACLE_H_
#define HIDO_TESTS_TESTING_COUNT_ORACLE_H_

// The cube-counting oracle for tests: a scan of every row of the dataset,
// each value discretized through the grid's quantizer (Quantizer::CellOf).
// It reads no bitmap and no counting kernel, so agreement with it checks
// SparsityObjective's counts, GridModel::CoveredPoints and the bitmaps the
// grid build fills, end to end.

#include <cstddef>
#include <vector>

#include "data/dataset.h"
#include "grid/grid_model.h"

namespace hido {

/// Number of rows of `data` satisfying all `conditions` of `grid`, the
/// model built from `data`, by full scan. A missing value matches nothing.
inline size_t CountByScan(const Dataset& data, const GridModel& grid,
                          const std::vector<DimRange>& conditions) {
  const Quantizer& quantizer = grid.quantizer();
  size_t count = 0;
  for (size_t row = 0; row < data.num_rows(); ++row) {
    bool covered = true;
    for (const DimRange& cond : conditions) {
      if (data.IsMissing(row, cond.dim) ||
          quantizer.CellOf(cond.dim, data.Get(row, cond.dim)) != cond.cell) {
        covered = false;
        break;
      }
    }
    count += covered ? 1 : 0;
  }
  return count;
}

}  // namespace hido

#endif  // HIDO_TESTS_TESTING_COUNT_ORACLE_H_
