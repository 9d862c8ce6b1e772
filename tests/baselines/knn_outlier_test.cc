#include "baselines/knn_outlier.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "data/generators/synthetic.h"

namespace hido {
namespace {

TEST(KnnOutlierTest, FindsTheObviousGlobalOutlier) {
  Dataset ds(2);
  for (int i = 0; i < 50; ++i) {
    ds.AppendRow({0.5 + 0.001 * i, 0.5 - 0.001 * i});
  }
  ds.AppendRow({10.0, 10.0});  // row 50, far away
  const DistanceMetric metric(ds);
  KnnOutlierOptions opts;
  opts.k = 1;
  opts.num_outliers = 1;
  const std::vector<KnnOutlier> out = TopNKnnOutliers(metric, opts);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].row, 50u);
}

TEST(KnnOutlierTest, MatchesReferenceImplementation) {
  const Dataset ds = GenerateUniform(150, 4, 1);
  const DistanceMetric metric(ds);
  for (size_t k : {1u, 3u, 5u}) {
    KnnOutlierOptions opts;
    opts.k = k;
    opts.num_outliers = 10;
    const std::vector<KnnOutlier> got = TopNKnnOutliers(metric, opts);
    ASSERT_EQ(got.size(), 10u);

    const std::vector<double> all = AllKthNeighborDistances(metric, k);
    std::vector<double> sorted = all;
    std::sort(sorted.rbegin(), sorted.rend());
    for (size_t i = 0; i < 10; ++i) {
      EXPECT_DOUBLE_EQ(got[i].kth_distance, sorted[i]) << "k=" << k;
      EXPECT_DOUBLE_EQ(got[i].kth_distance, all[got[i].row]);
    }
  }
}

TEST(KnnOutlierTest, ResultsSortedStrongestFirst) {
  const Dataset ds = GenerateUniform(100, 3, 3);
  const DistanceMetric metric(ds);
  KnnOutlierOptions opts;
  opts.k = 2;
  opts.num_outliers = 15;
  const std::vector<KnnOutlier> out = TopNKnnOutliers(metric, opts);
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_GE(out[i - 1].kth_distance, out[i].kth_distance);
  }
}

TEST(KnnOutlierTest, NumOutliersLargerThanNClamps) {
  const Dataset ds = GenerateUniform(10, 2, 4);
  const DistanceMetric metric(ds);
  KnnOutlierOptions opts;
  opts.k = 1;
  opts.num_outliers = 50;
  const std::vector<KnnOutlier> out = TopNKnnOutliers(metric, opts);
  EXPECT_EQ(out.size(), 10u);
  std::set<size_t> rows;
  for (const KnnOutlier& o : out) rows.insert(o.row);
  EXPECT_EQ(rows.size(), 10u);  // every point reported once
}

TEST(KnnOutlierTest, NoShuffleStillExact) {
  const Dataset ds = GenerateUniform(80, 3, 5);
  const DistanceMetric metric(ds);
  KnnOutlierOptions opts;
  opts.k = 3;
  opts.num_outliers = 5;
  opts.shuffle_seed = 0;  // natural order
  const std::vector<KnnOutlier> got = TopNKnnOutliers(metric, opts);
  const std::vector<double> all = AllKthNeighborDistances(metric, 3);
  std::vector<double> sorted = all;
  std::sort(sorted.rbegin(), sorted.rend());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_DOUBLE_EQ(got[i].kth_distance, sorted[i]);
  }
}

TEST(KnnOutlierTest, ParallelMatchesSerialBitExactly) {
  const Dataset ds = GenerateUniform(400, 6, 3);
  const DistanceMetric metric(ds);
  KnnOutlierOptions opts;
  opts.k = 4;
  opts.num_outliers = 15;
  opts.num_threads = 1;
  const std::vector<KnnOutlier> serial = TopNKnnOutliers(metric, opts);
  for (size_t threads : {2u, 4u, 8u, 0u}) {
    opts.num_threads = threads;
    const std::vector<KnnOutlier> parallel = TopNKnnOutliers(metric, opts);
    ASSERT_EQ(parallel.size(), serial.size()) << threads;
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i].row, serial[i].row) << "threads=" << threads;
      EXPECT_EQ(parallel[i].kth_distance, serial[i].kth_distance);
    }
  }
}

TEST(KnnOutlierTest, ExactScoreTiesBreakOnRowNotScanOrder) {
  // Two identical far pairs: rows 20/21 and 22/23 have the same 1-NN
  // distance, so with num_outliers=3 one tied pair member must win by the
  // (score desc, row asc) total order — independent of shuffle seed.
  Dataset ds(2);
  for (int i = 0; i < 20; ++i) ds.AppendRow({0.0, 0.001 * i});
  ds.AppendRow({50.0, 0.0});
  ds.AppendRow({53.0, 0.0});
  ds.AppendRow({50.0, 30.0});
  ds.AppendRow({53.0, 30.0});
  const DistanceMetric metric(ds);
  KnnOutlierOptions opts;
  opts.k = 1;
  opts.num_outliers = 3;
  for (uint64_t seed : {0u, 1u, 7u, 99u}) {
    opts.shuffle_seed = seed;
    const std::vector<KnnOutlier> out = TopNKnnOutliers(metric, opts);
    ASSERT_EQ(out.size(), 3u) << seed;
    EXPECT_EQ(out[0].row, 20u) << seed;
    EXPECT_EQ(out[1].row, 21u) << seed;
    EXPECT_EQ(out[2].row, 22u) << seed;  // ties with 23; lower row wins
  }
}

TEST(KnnOutlierTest, PreCancelledTokenYieldsEmptyIncomplete) {
  const Dataset ds = GenerateUniform(100, 3, 5);
  const DistanceMetric metric(ds);
  StopToken token;
  token.RequestCancel();
  KnnOutlierOptions opts;
  opts.k = 2;
  opts.num_outliers = 5;
  opts.stop = &token;
  RunStatus status;
  const std::vector<KnnOutlier> out = TopNKnnOutliers(metric, opts, &status);
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(status.completed);
  EXPECT_EQ(status.stop_cause, StopCause::kCancelled);
}

TEST(KnnOutlierTest, FailpointMidScanReportsValidPartial) {
  const Dataset ds = GenerateUniform(200, 4, 8);
  const DistanceMetric metric(ds);
  StopToken token;
  token.ArmFailpoint(50);  // stop after ~50 of 200 points
  KnnOutlierOptions opts;
  opts.k = 3;
  opts.num_outliers = 10;
  opts.stop = &token;
  RunStatus status;
  const std::vector<KnnOutlier> out = TopNKnnOutliers(metric, opts, &status);
  EXPECT_FALSE(status.completed);
  EXPECT_EQ(status.stop_cause, StopCause::kFailpoint);
  // Partial but valid: scores exact, sorted strongest first.
  const std::vector<double> all = AllKthNeighborDistances(metric, 3);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i].kth_distance, all[out[i].row]);
    if (i > 0) {
      EXPECT_GE(out[i - 1].kth_distance, out[i].kth_distance);
    }
  }
}

TEST(KnnOutlierDeathTest, InvalidK) {
  const Dataset ds = GenerateUniform(10, 2, 6);
  const DistanceMetric metric(ds);
  KnnOutlierOptions opts;
  opts.k = 10;  // == n
  EXPECT_DEATH(TopNKnnOutliers(metric, opts), "k must be");
}

}  // namespace
}  // namespace hido
