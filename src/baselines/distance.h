#ifndef HIDO_BASELINES_DISTANCE_H_
#define HIDO_BASELINES_DISTANCE_H_

// Full-dimensional Lp distances — the measure the paper argues loses
// meaning in high dimensionality. Shared substrate of the three comparator
// algorithms (Knorr-Ng DB-outliers, Ramaswamy kNN-outliers, LOF).

#include <vector>

#include "data/dataset.h"

namespace hido {

/// Precomputed distance oracle over a dataset.
///
/// Columns are min-max normalized to [0,1] by default so that no attribute
/// dominates by scale (the projection method is scale-invariant via
/// equi-depth ranges; normalizing keeps the baselines comparable).
/// Missing values: a dimension where either point is missing is skipped and
/// the sum is rescaled by num_dims / num_present_dims (Dixon's
/// partial-distance convention). Distance between two points with no shared
/// present dimension is +infinity.
class DistanceMetric {
 public:
  /// Normalization choices applied before distances are taken.
  struct Options {
    double p = 2.0;         ///< Lp exponent (p >= 1)
    bool normalize = true;  ///< min-max normalize each column first
  };

  /// Precomputes per-column scales over `data` as configured.
  DistanceMetric(const Dataset& data, const Options& options);
  /// Same, with default options.
  explicit DistanceMetric(const Dataset& data);

  size_t num_points() const { return num_points_; }  ///< rows n
  size_t num_dims() const { return num_dims_; }      ///< attributes d

  /// Distance between rows `a` and `b`.
  double Distance(size_t a, size_t b) const;

 private:
  size_t num_points_;
  size_t num_dims_;
  double p_;
  bool has_missing_;
  // Row-major normalized values; NaN marks missing.
  std::vector<double> values_;

  const double* RowPtr(size_t row) const {
    return values_.data() + row * num_dims_;
  }
};

}  // namespace hido

#endif  // HIDO_BASELINES_DISTANCE_H_
