#include "baselines/knn_outlier.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <queue>

#include "baselines/vptree.h"
#include "common/macros.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hido {

std::vector<double> AllKthNeighborDistances(const DistanceMetric& metric,
                                            size_t k) {
  const size_t n = metric.num_points();
  HIDO_CHECK(k >= 1 && k < n);
  std::vector<double> out(n);
  for (size_t i = 0; i < n; ++i) {
    const std::vector<Neighbor> nn = BruteForceNearest(metric, i, k);
    out[i] = nn.back().distance;
  }
  return out;
}

std::vector<KnnOutlier> TopNKnnOutliers(const DistanceMetric& metric,
                                        const KnnOutlierOptions& options,
                                        RunStatus* status) {
  const size_t n = metric.num_points();
  HIDO_CHECK(options.k >= 1);
  HIDO_CHECK_MSG(options.k < n, "k must be < number of points");
  HIDO_CHECK(options.num_outliers >= 1);
  const obs::TraceSpan span("knn_outliers");
  // The scored/pruned split depends on cutoff publication timing, so these
  // two counters are thread-variant (their sum is not).
  obs::Counter& points_scored =
      obs::MetricsRegistry::Global().GetCounter("baseline.knn.points_scored");
  obs::Counter& points_pruned =
      obs::MetricsRegistry::Global().GetCounter("baseline.knn.points_pruned");
  const size_t top_n = std::min(options.num_outliers, n);
  const size_t num_threads =
      options.num_threads == 0 ? HardwareThreads() : options.num_threads;

  std::vector<size_t> scan_order(n);
  for (size_t i = 0; i < n; ++i) scan_order[i] = i;
  if (options.shuffle_seed != 0) {
    Rng rng(options.shuffle_seed);
    rng.Shuffle(scan_order);
  }

  StopPoller poller(options.stop);

  // Shared abandonment cutoff. Any worker's local n-th largest score is a
  // lower bound on the final n-th largest (it ranks a subset of the
  // points), so a point whose k-NN upper bound drops strictly below it can
  // never enter the final top n — regardless of which worker scored what.
  // Workers only raise the cutoff (CAS max), so every prune is sound and
  // the surviving set is a superset of the true top n at any thread count.
  std::atomic<double> cutoff{-std::numeric_limits<double>::infinity()};

  struct WorkerState {
    // Min-heap of the worker's own top-n scores (weakest on top).
    std::priority_queue<double, std::vector<double>, std::greater<double>>
        top;
    std::vector<KnnOutlier> survivors;
  };
  std::vector<WorkerState> workers(std::max<size_t>(1, num_threads));

  ParallelFor(n, num_threads, [&](size_t point, size_t worker) {
    if (poller.ShouldStop()) return;
    WorkerState& ws = workers[worker];
    // Running k smallest distances with early abandonment: ksmallest.top()
    // only shrinks as the scan proceeds, so it upper-bounds the point's
    // true k-th-NN distance.
    std::priority_queue<double> ksmallest;  // max-heap of k best
    for (size_t j : scan_order) {
      if (j == point) continue;
      const double d = metric.Distance(point, j);
      if (ksmallest.size() < options.k) {
        ksmallest.push(d);
      } else if (d < ksmallest.top()) {
        ksmallest.pop();
        ksmallest.push(d);
      }
      if (ksmallest.size() == options.k &&
          ksmallest.top() < cutoff.load(std::memory_order_relaxed)) {
        points_pruned.Add(1);
        return;  // provably outside the final top n
      }
    }
    const double kth = ksmallest.top();
    points_scored.Add(1);
    ws.survivors.push_back({point, kth});
    if (ws.top.size() < top_n) {
      ws.top.push(kth);
    } else if (kth > ws.top.top()) {
      ws.top.pop();
      ws.top.push(kth);
    }
    if (ws.top.size() == top_n) {
      double local = ws.top.top();
      double seen = cutoff.load(std::memory_order_relaxed);
      while (local > seen &&
             !cutoff.compare_exchange_weak(seen, local,
                                           std::memory_order_relaxed)) {
      }
    }
  });

  // Survivors hold exact scores for every candidate that might rank; the
  // final selection applies the (score desc, row asc) total order, so the
  // output is independent of scan order, thread count, and prune timing.
  std::vector<KnnOutlier> out;
  for (WorkerState& ws : workers) {
    out.insert(out.end(), ws.survivors.begin(), ws.survivors.end());
  }
  std::sort(out.begin(), out.end(),
            [](const KnnOutlier& a, const KnnOutlier& b) {
              return a.kth_distance != b.kth_distance
                         ? a.kth_distance > b.kth_distance
                         : a.row < b.row;
            });
  if (out.size() > top_n) out.resize(top_n);
  if (status != nullptr) *status = poller.status();
  return out;
}

}  // namespace hido
