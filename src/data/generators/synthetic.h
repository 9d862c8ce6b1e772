#ifndef HIDO_DATA_GENERATORS_SYNTHETIC_H_
#define HIDO_DATA_GENERATORS_SYNTHETIC_H_

// Synthetic workloads with planted ground truth.
//
// The central generator plants exactly the structure the paper is about.
// Attributes are organized into *correlated groups*: within a group every
// background point follows one of M joint "modes" (think height/weight, or
// age/diabetes-status — attributes whose values co-occur in a few
// combinations). Marginally each mode level is common (≈ N/M points), but
// combinations that mix levels from different modes occur in NO background
// point. A planted anomaly takes such an off-mode combination in one group
// and is perfectly ordinary everywhere else: it sits alone in an abnormally
// sparse low-dimensional cell (strongly negative sparsity coefficient)
// while full-dimensional distances barely register it — the paper's
// "many people under 20, many diabetics, almost nobody who is both", and
// the geometry of its Figure 1 (some 2-d views expose the outlier, the
// rest look average).
//
// Alignment note: with an equi-depth grid of phi >= modes_per_group ranges,
// every mode level maps into its own range, so each planted anomaly is the
// only point of its k-dimensional cell.

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "data/dataset.h"

namespace hido {

/// Configuration for GenerateSubspaceOutliers.
struct SubspaceOutlierConfig {
  size_t num_points = 1000;   ///< total rows, anomalies included
  size_t num_dims = 20;       ///< attributes
  size_t num_groups = 4;      ///< correlated attribute groups
  size_t group_dims = 2;      ///< dims per group (>= 2)
  size_t modes_per_group = 5; ///< M joint modes per group (>= 2)
  double mode_sigma = 0.02;   ///< within-mode spread per dim
  size_t num_outliers = 10;   ///< planted anomalies
  /// Dims of each anomaly's off-mode combination (2 <= x <= group_dims).
  size_t outlier_subspace_dims = 2;
  /// Fraction of cells set missing uniformly at random (0 disables).
  double missing_fraction = 0.0;
  uint64_t seed = 42;  ///< RNG seed
};

/// A generated dataset plus its planted ground truth.
struct GeneratedDataset {
  Dataset data;  ///< the generated rows
  /// Row ids of the planted anomalies.
  std::vector<size_t> outlier_rows;
  /// For each planted anomaly (parallel to outlier_rows), the dimensions of
  /// its off-mode combination — the view that exposes it.
  std::vector<std::vector<size_t>> outlier_dims;
  /// The correlated attribute groups (sorted dims per group).
  std::vector<std::vector<size_t>> groups;
};

/// Generates the correlated-groups workload described above.
///
/// Requirements (checked): num_groups >= 1, group_dims >= 2,
/// num_groups * group_dims <= num_dims, modes_per_group >= 2,
/// 2 <= outlier_subspace_dims <= group_dims, num_outliers <= num_points.
GeneratedDataset GenerateSubspaceOutliers(const SubspaceOutlierConfig& config);

/// i.i.d. uniform [0,1) noise — the null model of Equation 1 (every cube's
/// sparsity coefficient is approximately standard normal).
Dataset GenerateUniform(size_t num_points, size_t num_dims, uint64_t seed);

}  // namespace hido

#endif  // HIDO_DATA_GENERATORS_SYNTHETIC_H_
