#include "baselines/lof.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <numeric>

#include "baselines/vptree.h"
#include "common/macros.h"
#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hido {

std::vector<double> ComputeLof(const DistanceMetric& metric,
                               const LofOptions& options,
                               RunStatus* status) {
  const size_t n = metric.num_points();
  HIDO_CHECK(options.min_pts >= 1);
  HIDO_CHECK_MSG(options.min_pts < n, "min_pts must be < number of points");
  const size_t k = options.min_pts;
  const size_t num_threads =
      options.num_threads == 0 ? HardwareThreads() : options.num_threads;
  const obs::TraceSpan span("lof");
  obs::Counter& points_scored =
      obs::MetricsRegistry::Global().GetCounter("baseline.lof.points_scored");
  StopPoller poller(options.stop);
  const double nan = std::numeric_limits<double>::quiet_NaN();

  // Three passes, each a barrier for the next. Under cancellation a value
  // is computed only when everything it depends on was computed in the
  // previous pass, so every non-NaN output is exactly what an uncancelled
  // run would produce.

  // Step 1: k-distance and k-distance neighbourhood (with ties) per point.
  std::vector<double> k_distance(n, nan);
  std::vector<std::vector<Neighbor>> neighborhood(n);
  std::vector<char> have_neighborhood(n, 0);
  ParallelFor(n, num_threads, [&](size_t i, size_t) {
    if (poller.ShouldStop()) return;
    // Over-fetch to capture ties at the k-distance.
    std::vector<Neighbor> nn =
        BruteForceNearest(metric, i, std::min(n - 1, k + 8));
    k_distance[i] = nn[k - 1].distance;
    // Extend through exact ties; if the over-fetch was insufficient, fall
    // back to a full scan (rare: >8-way tie).
    if (nn.back().distance <= k_distance[i] && nn.size() == k + 8 &&
        k + 8 < n - 1) {
      nn = BruteForceNearest(metric, i, n - 1);
    }
    size_t keep = 0;
    while (keep < nn.size() && nn[keep].distance <= k_distance[i]) ++keep;
    nn.resize(keep);
    neighborhood[i] = std::move(nn);
    have_neighborhood[i] = 1;
  });

  // Step 2: local reachability density
  //   lrd(p) = 1 / mean_{o in N(p)} reach-dist_k(p, o),
  //   reach-dist_k(p, o) = max(k-distance(o), d(p, o)).
  // NaN marks "not computed" — a legitimate lrd is positive or +inf.
  std::vector<double> lrd(n, nan);
  ParallelFor(n, num_threads, [&](size_t i, size_t) {
    if (poller.ShouldStop()) return;
    if (!have_neighborhood[i]) return;
    for (const Neighbor& o : neighborhood[i]) {
      if (!have_neighborhood[o.index]) return;
    }
    double sum = 0.0;
    for (const Neighbor& o : neighborhood[i]) {
      sum += std::max(k_distance[o.index], o.distance);
    }
    const double mean = sum / static_cast<double>(neighborhood[i].size());
    // Duplicate-heavy data can give mean 0 (all reach-dists 0): such a
    // point sits inside an infinitely dense clump.
    lrd[i] = mean > 0.0 ? 1.0 / mean
                        : std::numeric_limits<double>::infinity();
  });

  // Step 3: LOF(p) = mean_{o in N(p)} lrd(o) / lrd(p).
  std::vector<double> lof(n, nan);
  ParallelFor(n, num_threads, [&](size_t i, size_t) {
    if (poller.ShouldStop()) return;
    if (std::isnan(lrd[i])) return;
    for (const Neighbor& o : neighborhood[i]) {
      if (std::isnan(lrd[o.index])) return;
    }
    double sum = 0.0;
    for (const Neighbor& o : neighborhood[i]) {
      if (std::isinf(lrd[o.index]) && std::isinf(lrd[i])) {
        sum += 1.0;  // equally infinite densities cancel
      } else {
        sum += lrd[o.index] / lrd[i];
      }
    }
    lof[i] = sum / static_cast<double>(neighborhood[i].size());
    points_scored.Add(1);
  });
  if (status != nullptr) *status = poller.status();
  return lof;
}

std::vector<size_t> TopNByScore(const std::vector<double>& scores,
                                size_t n) {
  std::vector<size_t> order;
  order.reserve(scores.size());
  for (size_t i = 0; i < scores.size(); ++i) {
    if (!std::isnan(scores[i])) order.push_back(i);
  }
  n = std::min(n, order.size());
  std::partial_sort(order.begin(), order.begin() + static_cast<ptrdiff_t>(n),
                    order.end(), [&](size_t a, size_t b) {
                      return scores[a] != scores[b] ? scores[a] > scores[b]
                                                    : a < b;
                    });
  order.resize(n);
  return order;
}

}  // namespace hido
