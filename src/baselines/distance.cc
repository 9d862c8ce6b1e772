#include "baselines/distance.h"

#include <cmath>
#include <limits>

#include "common/macros.h"
#include "data/column_stats.h"

namespace hido {

DistanceMetric::DistanceMetric(const Dataset& data)
    : DistanceMetric(data, Options()) {}

DistanceMetric::DistanceMetric(const Dataset& data, const Options& options)
    : num_points_(data.num_rows()),
      num_dims_(data.num_cols()),
      p_(options.p),
      has_missing_(data.HasMissing()),
      values_(data.num_rows() * data.num_cols()) {
  HIDO_CHECK(p_ >= 1.0);
  HIDO_CHECK(num_points_ >= 1 && num_dims_ >= 1);

  std::vector<double> offset(num_dims_, 0.0);
  std::vector<double> scale(num_dims_, 1.0);
  if (options.normalize) {
    for (size_t c = 0; c < num_dims_; ++c) {
      const ColumnStats stats = ComputeColumnStats(data, c);
      offset[c] = stats.min;
      const double span = stats.max - stats.min;
      scale[c] = span > 0.0 ? 1.0 / span : 0.0;  // constant column -> 0
    }
  }
  for (size_t r = 0; r < num_points_; ++r) {
    for (size_t c = 0; c < num_dims_; ++c) {
      double* slot = &values_[r * num_dims_ + c];
      if (data.IsMissing(r, c)) {
        *slot = std::numeric_limits<double>::quiet_NaN();
      } else {
        *slot = (data.Get(r, c) - offset[c]) * scale[c];
      }
    }
  }
}

double DistanceMetric::Distance(size_t a, size_t b) const {
  HIDO_DCHECK(a < num_points_ && b < num_points_);
  const double* ra = RowPtr(a);
  const double* rb = RowPtr(b);
  double sum = 0.0;
  if (!has_missing_) {
    if (p_ == 2.0) {
      for (size_t c = 0; c < num_dims_; ++c) {
        const double diff = ra[c] - rb[c];
        sum += diff * diff;
      }
      return std::sqrt(sum);
    }
    for (size_t c = 0; c < num_dims_; ++c) {
      sum += std::pow(std::fabs(ra[c] - rb[c]), p_);
    }
    return std::pow(sum, 1.0 / p_);
  }
  size_t present = 0;
  for (size_t c = 0; c < num_dims_; ++c) {
    if (std::isnan(ra[c]) || std::isnan(rb[c])) continue;
    ++present;
    sum += std::pow(std::fabs(ra[c] - rb[c]), p_);
  }
  if (present == 0) return std::numeric_limits<double>::infinity();
  sum *= static_cast<double>(num_dims_) / static_cast<double>(present);
  return std::pow(sum, 1.0 / p_);
}

}  // namespace hido
