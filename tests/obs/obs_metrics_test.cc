// Unit tests for the metrics registry (src/obs/metrics.h). Named
// obs_metrics_test to stay distinct from eval/metrics_test (ranking
// metrics).

#include "obs/metrics.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace hido {
namespace obs {
namespace {

TEST(CounterTest, AddAccumulatesAndResetZeroes) {
  Counter counter;
  EXPECT_EQ(counter.Value(), 0u);
  counter.Add();
  counter.Add(41);
  EXPECT_EQ(counter.Value(), 42u);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(GaugeTest, SetAddUpdateMax) {
  Gauge gauge;
  gauge.Set(10);
  EXPECT_EQ(gauge.Value(), 10);
  gauge.Set(7);  // last writer wins, also downward
  EXPECT_EQ(gauge.Value(), 7);
  gauge.Reset();
  EXPECT_EQ(gauge.Value(), 0);
}

TEST(HistogramTest, BucketsByUpperBoundInclusive) {
  Histogram histogram({1.0, 2.0, 5.0});
  histogram.Observe(0.5);   // <= 1
  histogram.Observe(1.0);   // <= 1 (bound is inclusive)
  histogram.Observe(1.5);   // <= 2
  histogram.Observe(5.0);   // <= 5
  histogram.Observe(99.0);  // overflow
  const Histogram::Snapshot snapshot = histogram.TakeSnapshot();
  ASSERT_EQ(snapshot.counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(snapshot.counts[0], 2u);
  EXPECT_EQ(snapshot.counts[1], 1u);
  EXPECT_EQ(snapshot.counts[2], 1u);
  EXPECT_EQ(snapshot.counts[3], 1u);
  EXPECT_EQ(snapshot.total_count, 5u);
  EXPECT_DOUBLE_EQ(snapshot.sum, 0.5 + 1.0 + 1.5 + 5.0 + 99.0);

  histogram.Reset();
  const Histogram::Snapshot zeroed = histogram.TakeSnapshot();
  EXPECT_EQ(zeroed.total_count, 0u);
  EXPECT_EQ(zeroed.sum, 0.0);
}

TEST(MetricsRegistryTest, ReturnsStableReferences) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("test.counter");
  Counter& b = registry.GetCounter("test.counter");
  EXPECT_EQ(&a, &b);
  Gauge& g1 = registry.GetGauge("test.gauge");
  Gauge& g2 = registry.GetGauge("test.gauge");
  EXPECT_EQ(&g1, &g2);
  Histogram& h1 = registry.GetHistogram("test.histogram", {1.0, 2.0});
  Histogram& h2 = registry.GetHistogram("test.histogram", {1.0, 2.0});
  EXPECT_EQ(&h1, &h2);
}

TEST(MetricsRegistryTest, SnapshotIsSortedByName) {
  MetricsRegistry registry;
  registry.GetCounter("zebra.count").Add(1);
  registry.GetCounter("alpha.count").Add(2);
  registry.GetCounter("mid.count").Add(3);
  const MetricsSnapshot snapshot = registry.TakeSnapshot();
  ASSERT_EQ(snapshot.counters.size(), 3u);
  EXPECT_EQ(snapshot.counters[0].name, "alpha.count");
  EXPECT_EQ(snapshot.counters[0].value, 2u);
  EXPECT_EQ(snapshot.counters[1].name, "mid.count");
  EXPECT_EQ(snapshot.counters[2].name, "zebra.count");
}

TEST(MetricsRegistryTest, ResetForTestKeepsReferencesValid) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("reset.count");
  counter.Add(5);
  registry.ResetForTest();
  EXPECT_EQ(counter.Value(), 0u);
  counter.Add(1);  // cached reference still live
  EXPECT_EQ(registry.GetCounter("reset.count").Value(), 1u);
}

TEST(MetricsRegistryTest, GlobalIsASingleton) {
  EXPECT_EQ(&MetricsRegistry::Global(), &MetricsRegistry::Global());
}

TEST(MetricNameTest, ValidatesNamingConvention) {
  EXPECT_TRUE(IsValidMetricName("search.evaluations"));
  EXPECT_TRUE(IsValidMetricName("baseline.knn.points_scored"));
  EXPECT_TRUE(IsValidMetricName("pool.queue_high_water"));
  EXPECT_TRUE(IsValidMetricName("a"));
  EXPECT_TRUE(IsValidMetricName("a2.b_3"));

  EXPECT_FALSE(IsValidMetricName(""));
  EXPECT_FALSE(IsValidMetricName("."));
  EXPECT_FALSE(IsValidMetricName("a..b"));
  EXPECT_FALSE(IsValidMetricName("a.b."));
  EXPECT_FALSE(IsValidMetricName(".a"));
  EXPECT_FALSE(IsValidMetricName("Upper.case"));
  EXPECT_FALSE(IsValidMetricName("a.2leading_digit"));
  EXPECT_FALSE(IsValidMetricName("a._leading_underscore"));
  EXPECT_FALSE(IsValidMetricName("spa ce"));
  EXPECT_FALSE(IsValidMetricName("dash-ed"));
}

TEST(MetricsRegistryDeathTest, RejectsMalformedName) {
  MetricsRegistry registry;
  EXPECT_DEATH(registry.GetCounter("Bad Name"), "bad metric name");
}

TEST(MetricsRegistryDeathTest, RejectsKindCollision) {
  MetricsRegistry registry;
  registry.GetCounter("collide.name");
  EXPECT_DEATH(registry.GetGauge("collide.name"),
               "already registered as another kind");
}

TEST(MetricsRegistryDeathTest, RejectsHistogramBoundsMismatch) {
  MetricsRegistry registry;
  registry.GetHistogram("bounds.check", {1.0, 2.0});
  EXPECT_DEATH(registry.GetHistogram("bounds.check", {1.0, 3.0}),
               "different bounds");
}

TEST(HistogramDeathTest, RejectsBadBounds) {
  EXPECT_DEATH(Histogram(std::vector<double>{}),
               "at least one bucket bound");
  EXPECT_DEATH(Histogram(std::vector<double>{2.0, 1.0}),
               "strictly increasing");
}

}  // namespace
}  // namespace obs
}  // namespace hido
