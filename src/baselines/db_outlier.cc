#include "baselines/db_outlier.h"

#include <algorithm>

#include "common/macros.h"
#include "common/parallel.h"
#include "common/stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hido {

std::vector<size_t> DbOutliers(const DistanceMetric& metric,
                               const DbOutlierOptions& options,
                               RunStatus* status) {
  HIDO_CHECK(options.lambda > 0.0);
  const size_t n = metric.num_points();
  const size_t num_threads =
      options.num_threads == 0 ? HardwareThreads() : options.num_threads;
  const obs::TraceSpan span("db_outliers");
  obs::Counter& points_judged =
      obs::MetricsRegistry::Global().GetCounter("baseline.db.points_judged");
  StopPoller poller(options.stop);

  // Per-point verdicts are independent, so workers fill a flag array and
  // the ascending result order comes from the final collection pass — the
  // output cannot depend on the thread count.
  std::vector<char> is_outlier(n, 0);
  ParallelFor(n, num_threads, [&](size_t i, size_t) {
    if (poller.ShouldStop()) return;
    size_t neighbors = 0;
    is_outlier[i] = 1;
    for (size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      if (metric.Distance(i, j) <= options.lambda) {
        if (++neighbors > options.max_neighbors) {
          is_outlier[i] = 0;  // too many close points: not an outlier
          break;
        }
      }
    }
    points_judged.Add(1);
  });

  std::vector<size_t> outliers;
  for (size_t i = 0; i < n; ++i) {
    if (is_outlier[i]) outliers.push_back(i);
  }
  obs::MetricsRegistry::Global()
      .GetCounter("baseline.db.outliers_flagged")
      .Add(outliers.size());
  if (status != nullptr) *status = poller.status();
  return outliers;
}

double EstimateLambda(const DistanceMetric& metric, double quantile,
                      size_t sample_pairs, Rng& rng) {
  HIDO_CHECK(quantile >= 0.0 && quantile <= 1.0);
  HIDO_CHECK(sample_pairs >= 1);
  const size_t n = metric.num_points();
  HIDO_CHECK(n >= 2);
  std::vector<double> distances;
  distances.reserve(sample_pairs);
  for (size_t s = 0; s < sample_pairs; ++s) {
    const size_t a = rng.UniformIndex(n);
    size_t b = rng.UniformIndex(n);
    while (b == a) b = rng.UniformIndex(n);
    distances.push_back(metric.Distance(a, b));
  }
  std::sort(distances.begin(), distances.end());
  return QuantileSorted(distances, quantile);
}

}  // namespace hido
