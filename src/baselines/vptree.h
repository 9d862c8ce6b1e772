#ifndef HIDO_BASELINES_VPTREE_H_
#define HIDO_BASELINES_VPTREE_H_

// A vantage-point tree (an exact metric-space k-nearest-neighbour index)
// and BruteForceNearest, the linear-scan kNN the baselines build on. The
// baselines do not use the tree: at the dimensionalities they run at,
// distances concentrate and its pruning degrades toward a linear scan, the
// effect the paper leans on; bench/micro_baselines measures the two.

#include <cstdint>
#include <vector>

#include "baselines/distance.h"
#include "common/rng.h"

namespace hido {

/// One nearest-neighbour answer.
struct Neighbor {
  uint32_t index;   ///< dataset row of the neighbour
  double distance;  ///< distance to the query point

  friend bool operator<(const Neighbor& a, const Neighbor& b) {
    return a.distance != b.distance ? a.distance < b.distance
                                    : a.index < b.index;
  }
};

/// Exact VP-tree over the points of a DistanceMetric.
class VpTree {
 public:
  /// Builds the tree (O(N log N) expected distance computations).
  /// `metric` must outlive the tree.
  VpTree(const DistanceMetric& metric, uint64_t seed = 7);

  /// The `k` nearest neighbours of point `query` (itself excluded),
  /// ascending by distance. k is clamped to N-1.
  std::vector<Neighbor> Nearest(size_t query, size_t k) const;

 private:
  struct Node {
    uint32_t point = 0;
    double threshold = 0.0;  // median distance to the inside subtree
    int32_t inside = -1;     // children: index into nodes_, -1 = none
    int32_t outside = -1;
  };

  int32_t BuildRecursive(std::vector<uint32_t>& items, size_t begin,
                         size_t end, Rng& rng);

  const DistanceMetric* metric_;
  std::vector<Node> nodes_;
  int32_t root_ = -1;
};

/// Brute-force reference kNN with the same contract as VpTree::Nearest.
std::vector<Neighbor> BruteForceNearest(const DistanceMetric& metric,
                                        size_t query, size_t k);

}  // namespace hido

#endif  // HIDO_BASELINES_VPTREE_H_
