#ifndef HIDO_DATA_COLUMN_STATS_H_
#define HIDO_DATA_COLUMN_STATS_H_

// Per-column summary statistics, used for dataset sanity reports and by the
// generators' self-checks.

#include <string>
#include <vector>

#include "data/dataset.h"

namespace hido {

/// Summary of one numeric column.
struct ColumnStats {
  size_t count = 0;    ///< non-missing cells
  size_t missing = 0;  ///< missing cells
  double min = 0.0;    ///< smallest present value
  double max = 0.0;    ///< largest present value
  double mean = 0.0;   ///< arithmetic mean of present values
  double stddev = 0.0;    ///< unbiased sample stddev
  double median = 0.0;    ///< lower median of present values
  size_t distinct = 0;  ///< number of distinct non-missing values
};

/// Computes statistics for column `col` of `data`.
ColumnStats ComputeColumnStats(const Dataset& data, size_t col);

/// Human-readable multi-line summary of a dataset (shape, missing cells,
/// per-column ranges). Intended for examples and debugging.
std::string DescribeDataset(const Dataset& data, size_t max_columns = 16);

}  // namespace hido

#endif  // HIDO_DATA_COLUMN_STATS_H_
