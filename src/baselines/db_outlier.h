#ifndef HIDO_BASELINES_DB_OUTLIER_H_
#define HIDO_BASELINES_DB_OUTLIER_H_

// Distance-based DB(k, lambda) outliers of Knorr & Ng (VLDB 1998) —
// reference [22]: a point p is an outlier when no more than k points lie
// within distance lambda of p. The paper's introduction criticizes the
// sensitivity of lambda in high dimensionality (slightly too small: all
// points are outliers; slightly too large: none are); EstimateLambda and
// the sweep bench make that criticism measurable.

#include <vector>

#include "baselines/distance.h"
#include "common/rng.h"
#include "common/run_control.h"

namespace hido {

/// Options for DbOutliers.
struct DbOutlierOptions {
  double lambda = 0.5;      ///< neighbourhood radius
  size_t max_neighbors = 5; ///< k: tolerated neighbours within lambda
  /// Worker threads (0 = hardware concurrency). The result does not depend
  /// on the thread count.
  size_t num_threads = 1;
  /// Optional cooperative stop, polled once per point. After a fired token
  /// only the points already judged are reported (`status->completed ==
  /// false`); every reported row is a true outlier. Nullable; must outlive
  /// the call.
  const StopToken* stop = nullptr;
};

/// Rows that are DB(k, lambda) outliers, ascending. The nested loop
/// abandons a point as soon as its neighbour count exceeds k. `status`
/// (nullable) receives whether every point was judged.
std::vector<size_t> DbOutliers(const DistanceMetric& metric,
                               const DbOutlierOptions& options,
                               RunStatus* status = nullptr);

/// Estimates lambda as the given quantile (in [0,1]) of the pairwise
/// distance distribution, from `sample_pairs` sampled pairs. This is the
/// a-priori guess a practitioner would make — and the quantity whose
/// usable window collapses as dimensionality grows.
double EstimateLambda(const DistanceMetric& metric, double quantile,
                      size_t sample_pairs, Rng& rng);

}  // namespace hido

#endif  // HIDO_BASELINES_DB_OUTLIER_H_
