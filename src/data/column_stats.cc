#include "data/column_stats.h"

#include <algorithm>
#include <cmath>

#include "common/stats.h"
#include "common/string_util.h"

namespace hido {

ColumnStats ComputeColumnStats(const Dataset& data, size_t col) {
  HIDO_CHECK(col < data.num_cols());
  ColumnStats out;
  RunningMoments moments;
  std::vector<double> present;
  present.reserve(data.num_rows());
  for (size_t r = 0; r < data.num_rows(); ++r) {
    if (data.IsMissing(r, col)) {
      ++out.missing;
      continue;
    }
    const double v = data.Get(r, col);
    moments.Add(v);
    present.push_back(v);
  }
  out.count = moments.count();
  if (out.count > 0) {
    out.min = moments.min();
    out.max = moments.max();
    out.mean = moments.mean();
    out.stddev = moments.stddev();
    std::sort(present.begin(), present.end());
    out.median = QuantileSorted(present, 0.5);
    out.distinct = 1;
    for (size_t i = 1; i < present.size(); ++i) {
      if (present[i] != present[i - 1]) ++out.distinct;
    }
  }
  return out;
}

std::string DescribeDataset(const Dataset& data, size_t max_columns) {
  std::string out = StrFormat("Dataset: %zu rows x %zu cols%s\n",
                              data.num_rows(), data.num_cols(),
                              data.has_labels() ? " (labeled)" : "");
  const size_t limit = std::min(max_columns, data.num_cols());
  for (size_t c = 0; c < limit; ++c) {
    const ColumnStats s = ComputeColumnStats(data, c);
    out += StrFormat(
        "  %-20s count=%-6zu missing=%-4zu min=%-10.4g max=%-10.4g "
        "mean=%-10.4g sd=%-10.4g\n",
        data.ColumnName(c).c_str(), s.count, s.missing, s.min, s.max, s.mean,
        s.stddev);
  }
  if (limit < data.num_cols()) {
    out += StrFormat("  ... (%zu more columns)\n", data.num_cols() - limit);
  }
  return out;
}

}  // namespace hido
