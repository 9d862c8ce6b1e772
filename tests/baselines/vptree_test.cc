#include "baselines/vptree.h"

#include <gtest/gtest.h>

#include "data/generators/synthetic.h"

namespace hido {
namespace {

TEST(VpTreeTest, MatchesBruteForceOnRandomData) {
  const Dataset ds = GenerateUniform(200, 3, 1);
  const DistanceMetric metric(ds);
  const VpTree tree(metric);
  for (size_t q = 0; q < 200; q += 7) {
    for (size_t k : {1u, 3u, 10u}) {
      const std::vector<Neighbor> got = tree.Nearest(q, k);
      const std::vector<Neighbor> want = BruteForceNearest(metric, q, k);
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < got.size(); ++i) {
        // Distances must match exactly; indices may differ under ties.
        EXPECT_DOUBLE_EQ(got[i].distance, want[i].distance)
            << "q=" << q << " k=" << k << " i=" << i;
      }
    }
  }
}

TEST(VpTreeTest, NeighborsSortedAscendingAndExcludeQuery) {
  const Dataset ds = GenerateUniform(100, 4, 2);
  const DistanceMetric metric(ds);
  const VpTree tree(metric);
  const std::vector<Neighbor> nn = tree.Nearest(17, 12);
  ASSERT_EQ(nn.size(), 12u);
  for (size_t i = 0; i < nn.size(); ++i) {
    EXPECT_NE(nn[i].index, 17u);
    if (i > 0) {
      EXPECT_GE(nn[i].distance, nn[i - 1].distance);
    }
  }
}

TEST(VpTreeTest, KClampedToNMinusOne) {
  const Dataset ds = GenerateUniform(5, 2, 3);
  const DistanceMetric metric(ds);
  const VpTree tree(metric);
  EXPECT_EQ(tree.Nearest(0, 100).size(), 4u);
  EXPECT_TRUE(tree.Nearest(0, 0).empty());
}

TEST(VpTreeTest, SinglePointDataset) {
  const Dataset ds = Dataset::FromRows({{1.0, 2.0}});
  const DistanceMetric metric(ds);
  const VpTree tree(metric);
  EXPECT_TRUE(tree.Nearest(0, 3).empty());
}

TEST(VpTreeTest, DuplicatePointsHandled) {
  Dataset ds(2);
  for (int i = 0; i < 20; ++i) ds.AppendRow({0.5, 0.5});
  const DistanceMetric metric(ds);
  const VpTree tree(metric);
  const std::vector<Neighbor> nn = tree.Nearest(0, 5);
  ASSERT_EQ(nn.size(), 5u);
  for (const Neighbor& n : nn) EXPECT_DOUBLE_EQ(n.distance, 0.0);
}

TEST(BruteForceNearestTest, ExactOnTinyInstance) {
  const Dataset ds =
      Dataset::FromRows({{0.0}, {1.0}, {3.0}, {7.0}});
  DistanceMetric::Options opts;
  opts.normalize = false;
  const DistanceMetric metric(ds, opts);
  const std::vector<Neighbor> nn = BruteForceNearest(metric, 0, 2);
  ASSERT_EQ(nn.size(), 2u);
  EXPECT_EQ(nn[0].index, 1u);
  EXPECT_DOUBLE_EQ(nn[0].distance, 1.0);
  EXPECT_EQ(nn[1].index, 2u);
  EXPECT_DOUBLE_EQ(nn[1].distance, 3.0);
}

}  // namespace
}  // namespace hido
