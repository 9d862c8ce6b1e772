#ifndef HIDO_BASELINES_KNN_OUTLIER_H_
#define HIDO_BASELINES_KNN_OUTLIER_H_

// The kNN-distance outlier definition of Ramaswamy, Rastogi & Shim
// (SIGMOD 2000) — reference [25], the comparator of the paper's §3.1
// arrhythmia experiment: given k and n, report the n points whose distance
// to their k-th nearest neighbour is largest.
//
// Implementation: nested loop with the classic running-cutoff optimization
// — once a point's upper bound on its k-th-NN distance falls below the
// current n-th largest score, the point is abandoned. Points parallelize
// over the shared pool; the cutoff is shared across workers, and the final
// selection uses the (score desc, row asc) total order, so the result is
// identical at any thread count.

#include <vector>

#include "baselines/distance.h"
#include "common/run_control.h"

namespace hido {

/// Options for TopNKnnOutliers.
struct KnnOutlierOptions {
  size_t k = 1;            ///< which nearest neighbour defines the score
  size_t num_outliers = 20;  ///< n: points to report
  /// Shuffle the inner scan order (improves early abandonment); 0 keeps
  /// the natural order, any other value seeds the shuffle.
  uint64_t shuffle_seed = 1;
  /// Worker threads (0 = hardware concurrency). The result does not depend
  /// on the thread count.
  size_t num_threads = 1;
  /// Optional cooperative stop, polled once per point. A fired token skips
  /// the remaining points and reports the top-n of the points scored so
  /// far (`status->completed == false`). Nullable; must outlive the call.
  const StopToken* stop = nullptr;
};

/// One reported outlier.
struct KnnOutlier {
  size_t row;  ///< dataset row index
  double kth_distance;  ///< distance to the k-th nearest neighbour
};

/// Computes the top-n kNN-distance outliers, strongest (largest distance)
/// first; exact score ties rank the smaller row first. `status` (nullable)
/// receives whether the scan covered every point.
/// Preconditions: k >= 1, k < num_points, num_outliers >= 1.
std::vector<KnnOutlier> TopNKnnOutliers(const DistanceMetric& metric,
                                        const KnnOutlierOptions& options,
                                        RunStatus* status = nullptr);

/// Exact k-th-NN distance of every point (no pruning) — the reference
/// implementation used in tests.
std::vector<double> AllKthNeighborDistances(const DistanceMetric& metric,
                                            size_t k);

}  // namespace hido

#endif  // HIDO_BASELINES_KNN_OUTLIER_H_
