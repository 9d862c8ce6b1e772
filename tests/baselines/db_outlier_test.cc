#include "baselines/db_outlier.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "data/generators/synthetic.h"

namespace hido {
namespace {

TEST(DbOutlierTest, IsolatedPointIsAnOutlier) {
  Dataset ds(2);
  for (int i = 0; i < 30; ++i) {
    ds.AppendRow({0.5 + 0.002 * i, 0.5});
  }
  ds.AppendRow({10.0, 10.0});  // row 30
  DistanceMetric::Options mopts;
  mopts.normalize = false;
  const DistanceMetric metric(ds, mopts);
  DbOutlierOptions opts;
  opts.lambda = 1.0;
  opts.max_neighbors = 2;
  const std::vector<size_t> out = DbOutliers(metric, opts);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 30u);
}

TEST(DbOutlierTest, MatchesDefinitionExactly) {
  const Dataset ds = GenerateUniform(100, 2, 2);
  const DistanceMetric metric(ds);
  DbOutlierOptions opts;
  opts.lambda = 0.15;
  opts.max_neighbors = 4;
  const std::vector<size_t> out = DbOutliers(metric, opts);
  for (size_t i = 0; i < 100; ++i) {
    size_t neighbors = 0;
    for (size_t j = 0; j < 100; ++j) {
      if (j != i && metric.Distance(i, j) <= opts.lambda) ++neighbors;
    }
    const bool is_outlier = neighbors <= opts.max_neighbors;
    const bool reported =
        std::find(out.begin(), out.end(), i) != out.end();
    EXPECT_EQ(is_outlier, reported) << "row " << i;
  }
}

TEST(DbOutlierTest, LambdaSensitivityWindowCollapsesWithDimensionality) {
  // The paper's criticism made concrete: the fraction of lambda values (as
  // distance quantiles) yielding a "modest" outlier count shrinks as d
  // grows — tiny lambda changes flip between all-outliers and none.
  auto outlier_fraction_at_quantile = [](size_t d, double q) {
    const Dataset ds = GenerateUniform(200, d, 33);
    const DistanceMetric metric(ds);
    Rng rng(7);
    const double lambda = EstimateLambda(metric, q, 2000, rng);
    DbOutlierOptions opts;
    opts.lambda = std::max(lambda, 1e-9);
    opts.max_neighbors = 5;
    return static_cast<double>(DbOutliers(metric, opts).size()) / 200.0;
  };
  // In 100 dimensions the jump between quantile 0.01 and 0.10 is drastic:
  // nearly everything vs nearly nothing.
  const double low_q = outlier_fraction_at_quantile(100, 0.01);
  const double high_q = outlier_fraction_at_quantile(100, 0.10);
  EXPECT_GT(low_q, 0.7);
  EXPECT_LT(high_q, 0.3);
  EXPECT_GT(low_q - high_q, 0.5);
}

TEST(EstimateLambdaTest, MonotoneInQuantile) {
  const Dataset ds = GenerateUniform(100, 5, 3);
  const DistanceMetric metric(ds);
  Rng rng(1);
  const double l25 = EstimateLambda(metric, 0.25, 3000, rng);
  const double l75 = EstimateLambda(metric, 0.75, 3000, rng);
  EXPECT_GT(l25, 0.0);
  EXPECT_LT(l25, l75);
}

TEST(EstimateLambdaTest, ExtremesSpanTheDistanceRange) {
  const Dataset ds = GenerateUniform(50, 3, 4);
  const DistanceMetric metric(ds);
  Rng rng(2);
  const double lo = EstimateLambda(metric, 0.0, 1000, rng);
  const double hi = EstimateLambda(metric, 1.0, 1000, rng);
  EXPECT_LT(lo, hi);
}

TEST(DbOutlierTest, ParallelMatchesSerialExactly) {
  const Dataset ds = GenerateUniform(300, 4, 13);
  const DistanceMetric metric(ds);
  DbOutlierOptions opts;
  opts.lambda = 0.4;
  opts.max_neighbors = 3;
  opts.num_threads = 1;
  const std::vector<size_t> serial = DbOutliers(metric, opts);
  for (size_t threads : {2u, 4u, 0u}) {
    opts.num_threads = threads;
    EXPECT_EQ(DbOutliers(metric, opts), serial) << "threads=" << threads;
  }
}

TEST(DbOutlierTest, CancelledRunReportsOnlyJudgedPoints) {
  const Dataset ds = GenerateUniform(200, 3, 14);
  const DistanceMetric metric(ds);
  DbOutlierOptions opts;
  opts.lambda = 0.05;  // small radius: many outliers
  opts.max_neighbors = 1;
  const std::vector<size_t> full = DbOutliers(metric, opts);

  StopToken token;
  token.ArmFailpoint(60);
  opts.stop = &token;
  RunStatus status;
  const std::vector<size_t> partial = DbOutliers(metric, opts, &status);
  EXPECT_FALSE(status.completed);
  EXPECT_EQ(status.stop_cause, StopCause::kFailpoint);
  // Ascending, no duplicates, and a subset of the full answer — a skipped
  // point is simply unreported, never misreported.
  EXPECT_TRUE(std::is_sorted(partial.begin(), partial.end()));
  EXPECT_TRUE(std::includes(full.begin(), full.end(), partial.begin(),
                            partial.end()));
  EXPECT_LT(partial.size(), full.size());
}

TEST(DbOutlierDeathTest, NonPositiveLambda) {
  const Dataset ds = GenerateUniform(10, 2, 5);
  const DistanceMetric metric(ds);
  DbOutlierOptions opts;
  opts.lambda = 0.0;
  EXPECT_DEATH(DbOutliers(metric, opts), "lambda");
}

}  // namespace
}  // namespace hido
