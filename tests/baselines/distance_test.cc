#include "baselines/distance.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "data/generators/synthetic.h"

namespace hido {
namespace {

TEST(DistanceMetricTest, EuclideanWithoutNormalization) {
  const Dataset ds = Dataset::FromRows({{0.0, 0.0}, {3.0, 4.0}});
  DistanceMetric::Options opts;
  opts.normalize = false;
  const DistanceMetric metric(ds, opts);
  EXPECT_DOUBLE_EQ(metric.Distance(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(metric.Distance(1, 0), 5.0);
  EXPECT_DOUBLE_EQ(metric.Distance(0, 0), 0.0);
}

TEST(DistanceMetricTest, ManhattanDistance) {
  const Dataset ds = Dataset::FromRows({{0.0, 0.0}, {3.0, 4.0}});
  DistanceMetric::Options opts;
  opts.p = 1.0;
  opts.normalize = false;
  const DistanceMetric metric(ds, opts);
  EXPECT_DOUBLE_EQ(metric.Distance(0, 1), 7.0);
}

TEST(DistanceMetricTest, NormalizationRemovesScaleDominance) {
  // Second column has 1000x the scale; normalized distances treat both
  // columns equally.
  const Dataset ds =
      Dataset::FromRows({{0.0, 0.0}, {1.0, 0.0}, {0.0, 1000.0}});
  const DistanceMetric metric(ds);  // normalize = true
  EXPECT_NEAR(metric.Distance(0, 1), metric.Distance(0, 2), 1e-12);
}

TEST(DistanceMetricTest, ConstantColumnContributesZero) {
  const Dataset ds = Dataset::FromRows({{5.0, 1.0}, {5.0, 2.0}});
  const DistanceMetric metric(ds);
  EXPECT_DOUBLE_EQ(metric.Distance(0, 1), 1.0);  // only column 1 counts
}

TEST(DistanceMetricTest, MissingDimensionsRescaled) {
  // Dixon's convention: skip missing dims, scale by d / present.
  Dataset ds(2);
  ds.AppendRow({0.0, 0.0});
  ds.AppendRow({1.0, std::numeric_limits<double>::quiet_NaN()});
  DistanceMetric::Options opts;
  opts.normalize = false;
  const DistanceMetric metric(ds, opts);
  // Present dims: 1 of 2; sum = 1, rescaled = 2, sqrt(2).
  EXPECT_NEAR(metric.Distance(0, 1), std::sqrt(2.0), 1e-12);
}

TEST(DistanceMetricTest, NoSharedDimensionIsInfinite) {
  Dataset ds(2);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ds.AppendRow({0.0, nan});
  ds.AppendRow({nan, 1.0});
  DistanceMetric::Options opts;
  opts.normalize = false;
  const DistanceMetric metric(ds, opts);
  EXPECT_TRUE(std::isinf(metric.Distance(0, 1)));
}

TEST(DistanceMetricTest, TriangleInequalityOnRandomData) {
  const Dataset ds = GenerateUniform(20, 5, 5);
  const DistanceMetric metric(ds);
  for (size_t a = 0; a < 20; ++a) {
    for (size_t b = 0; b < 20; ++b) {
      for (size_t c = 0; c < 20; ++c) {
        EXPECT_LE(metric.Distance(a, c),
                  metric.Distance(a, b) + metric.Distance(b, c) + 1e-9);
      }
    }
  }
}

TEST(DistanceMetricTest, ConcentrationInHighDimensions) {
  // The phenomenon the paper leans on: relative contrast
  // (max - min) / min of pairwise distances collapses as d grows.
  auto contrast = [](size_t d) {
    const Dataset ds = GenerateUniform(100, d, 7);
    const DistanceMetric metric(ds);
    double min_d = std::numeric_limits<double>::infinity();
    double max_d = 0.0;
    for (size_t i = 0; i < 100; ++i) {
      for (size_t j = i + 1; j < 100; ++j) {
        min_d = std::min(min_d, metric.Distance(i, j));
        max_d = std::max(max_d, metric.Distance(i, j));
      }
    }
    return (max_d - min_d) / min_d;
  };
  EXPECT_GT(contrast(2), 4.0 * contrast(200));
}

TEST(DistanceMetricDeathTest, InvalidP) {
  const Dataset ds = Dataset::FromRows({{1.0}});
  DistanceMetric::Options opts;
  opts.p = 0.5;
  EXPECT_DEATH(DistanceMetric(ds, opts), "p_");
}

}  // namespace
}  // namespace hido
