// Concurrency stress for the metrics instruments, aimed at the TSan CI
// job: pool workers hammer one counter and one histogram through the same ParallelFor substrate the search uses, then the test
// checks exact totals (sharded counters lose nothing) and snapshot
// determinism (two snapshots of a quiesced registry serialize to the same
// bytes).

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"

namespace hido {
namespace obs {
namespace {

constexpr size_t kTasks = 64;
constexpr size_t kOpsPerTask = 2000;
constexpr size_t kThreads = 8;

TEST(MetricsStressTest, ConcurrentCounterAddsLoseNothing) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("stress.count");
  ParallelFor(kTasks, kThreads, [&](size_t task, size_t) {
    for (size_t i = 0; i < kOpsPerTask; ++i) {
      counter.Add(1);
    }
    counter.Add(task);  // uneven extra so shard sums matter
  });
  uint64_t expected = kTasks * kOpsPerTask;
  for (size_t task = 0; task < kTasks; ++task) expected += task;
  EXPECT_EQ(counter.Value(), expected);
}

TEST(MetricsStressTest, ConcurrentHistogramObservationsAreExact) {
  MetricsRegistry registry;
  Histogram& histogram =
      registry.GetHistogram("stress.values", {10.0, 100.0, 1000.0});
  ParallelFor(kTasks, kThreads, [&](size_t task, size_t) {
    for (size_t i = 0; i < kOpsPerTask; ++i) {
      // Integer-valued observations: bucket counts AND the sum are exact
      // and order-independent, so totals are schedule-invariant.
      histogram.Observe(static_cast<double>((task + i) % 2000));
    }
  });
  const Histogram::Snapshot snapshot = histogram.TakeSnapshot();
  EXPECT_EQ(snapshot.total_count, kTasks * kOpsPerTask);
  uint64_t count = 0;
  for (const uint64_t bucket : snapshot.counts) count += bucket;
  EXPECT_EQ(count, kTasks * kOpsPerTask);
  double expected_sum = 0.0;
  for (size_t task = 0; task < kTasks; ++task) {
    for (size_t i = 0; i < kOpsPerTask; ++i) {
      expected_sum += static_cast<double>((task + i) % 2000);
    }
  }
  EXPECT_EQ(snapshot.sum, expected_sum);
}

TEST(MetricsStressTest, ConcurrentRegistrationReturnsOneInstrument) {
  MetricsRegistry registry;
  std::vector<Counter*> seen(kTasks, nullptr);
  ParallelFor(kTasks, kThreads, [&](size_t task, size_t) {
    seen[task] = &registry.GetCounter("stress.race");
    seen[task]->Add(1);
  });
  for (size_t task = 1; task < kTasks; ++task) {
    EXPECT_EQ(seen[task], seen[0]);
  }
  EXPECT_EQ(seen[0]->Value(), kTasks);
}

TEST(MetricsStressTest, QuiescedSnapshotsSerializeIdentically) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("stress.snap_count");
  Histogram& histogram = registry.GetHistogram("stress.snap_hist", {8.0});
  ParallelFor(kTasks, kThreads, [&](size_t task, size_t) {
    counter.Add(task);
    histogram.Observe(static_cast<double>(task % 16));
  });
  // All workers joined: the registry is quiesced, so two snapshots must
  // agree byte-for-byte once serialized.
  const auto serialize = [&registry] {
    RunTelemetry telemetry;
    telemetry.tool = "stress";
    telemetry.metrics = registry.TakeSnapshot();
    return SerializeRunTelemetry(telemetry);
  };
  EXPECT_EQ(serialize(), serialize());
}

}  // namespace
}  // namespace obs
}  // namespace hido
