#ifndef HIDO_TESTS_TESTING_COUNT_ORACLE_H_
#define HIDO_TESTS_TESTING_COUNT_ORACLE_H_

// The cube-counting oracle for tests: a scan of every row through
// GridModel::Covers. It shares no bitmap or kernel with SparsityObjective's
// counts or GridModel::CoveredPoints, so agreement with it checks the
// counting paths end to end.

#include <cstddef>
#include <vector>

#include "grid/grid_model.h"

namespace hido {

/// Number of rows of `grid` satisfying all `conditions`, by full scan.
inline size_t CountByScan(const GridModel& grid,
                          const std::vector<DimRange>& conditions) {
  size_t count = 0;
  for (size_t row = 0; row < grid.num_points(); ++row) {
    count += grid.Covers(row, conditions) ? 1 : 0;
  }
  return count;
}

}  // namespace hido

#endif  // HIDO_TESTS_TESTING_COUNT_ORACLE_H_
