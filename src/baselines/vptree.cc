#include "baselines/vptree.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <queue>

#include "common/macros.h"

namespace hido {

VpTree::VpTree(const DistanceMetric& metric, uint64_t seed)
    : metric_(&metric) {
  Rng rng(seed);
  std::vector<uint32_t> items(metric.num_points());
  for (size_t i = 0; i < items.size(); ++i) {
    items[i] = static_cast<uint32_t>(i);
  }
  nodes_.reserve(items.size());
  root_ = BuildRecursive(items, 0, items.size(), rng);
}

int32_t VpTree::BuildRecursive(std::vector<uint32_t>& items, size_t begin,
                               size_t end, Rng& rng) {
  if (begin >= end) return -1;
  const int32_t node_idx = static_cast<int32_t>(nodes_.size());
  nodes_.push_back(Node{});

  // Random vantage point, swapped to the front of the span.
  const size_t pick = begin + rng.UniformIndex(end - begin);
  std::swap(items[begin], items[pick]);
  const uint32_t vantage = items[begin];
  nodes_[node_idx].point = vantage;

  const size_t count = end - begin - 1;
  if (count == 0) return node_idx;

  // Partition the remainder around the median distance to the vantage.
  const size_t mid = begin + 1 + count / 2;
  std::nth_element(items.begin() + static_cast<ptrdiff_t>(begin) + 1,
                   items.begin() + static_cast<ptrdiff_t>(mid),
                   items.begin() + static_cast<ptrdiff_t>(end),
                   [&](uint32_t a, uint32_t b) {
                     return metric_->Distance(vantage, a) <
                            metric_->Distance(vantage, b);
                   });
  const double threshold = metric_->Distance(vantage, items[mid]);
  // Record threshold before recursing (nodes_ may reallocate).
  const int32_t inside = BuildRecursive(items, begin + 1, mid, rng);
  const int32_t outside = BuildRecursive(items, mid, end, rng);
  nodes_[node_idx].threshold = threshold;
  nodes_[node_idx].inside = inside;
  nodes_[node_idx].outside = outside;
  return node_idx;
}

std::vector<Neighbor> VpTree::Nearest(size_t query, size_t k) const {
  const size_t n = metric_->num_points();
  HIDO_CHECK(query < n);
  if (n <= 1 || k == 0) return {};
  k = std::min(k, n - 1);

  // Max-heap of the k best candidates (worst on top).
  std::priority_queue<Neighbor> heap;
  double tau = std::numeric_limits<double>::infinity();

  // Explicit DFS stack.
  std::vector<int32_t> stack;
  stack.push_back(root_);
  while (!stack.empty()) {
    const int32_t idx = stack.back();
    stack.pop_back();
    if (idx < 0) continue;
    const Node& node = nodes_[static_cast<size_t>(idx)];
    const double dist = metric_->Distance(query, node.point);
    if (node.point != query && dist < tau) {
      heap.push({node.point, dist});
      if (heap.size() > k) heap.pop();
      if (heap.size() == k) tau = heap.top().distance;
    }
    if (node.inside < 0 && node.outside < 0) continue;
    if (dist < node.threshold) {
      // Inside first; the outside ball only if it can intersect.
      if (dist + tau >= node.threshold) stack.push_back(node.outside);
      stack.push_back(node.inside);
    } else {
      if (dist - tau <= node.threshold) stack.push_back(node.inside);
      stack.push_back(node.outside);
    }
  }

  std::vector<Neighbor> out;
  out.reserve(heap.size());
  while (!heap.empty()) {
    out.push_back(heap.top());
    heap.pop();
  }
  std::reverse(out.begin(), out.end());
  return out;
}

std::vector<Neighbor> BruteForceNearest(const DistanceMetric& metric,
                                        size_t query, size_t k) {
  const size_t n = metric.num_points();
  HIDO_CHECK(query < n);
  if (n <= 1 || k == 0) return {};
  k = std::min(k, n - 1);
  std::vector<Neighbor> all;
  all.reserve(n - 1);
  for (size_t i = 0; i < n; ++i) {
    if (i == query) continue;
    all.push_back({static_cast<uint32_t>(i), metric.Distance(query, i)});
  }
  std::partial_sort(all.begin(), all.begin() + static_cast<ptrdiff_t>(k),
                    all.end());
  all.resize(k);
  return all;
}

}  // namespace hido
