// The determinism contract, end to end: the detection report is a pure
// function of (data, seed, logical configuration). Counting kernels,
// container thresholds, and thread counts change which code computes each
// count — never the count — so the serialized report must be
// byte-identical across all of them.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/bitset_kernels.h"
#include "core/detector.h"
#include "core/report_io.h"
#include "data/generators/synthetic.h"
#include "grid/grid_model.h"

namespace hido {
namespace {

DetectorConfig BaseConfig() {
  DetectorConfig config;
  config.phi = 5;
  config.target_dim = 3;
  config.num_projections = 6;
  config.evolution.population_size = 30;
  config.evolution.max_generations = 20;
  config.evolution.restarts = 1;
  config.seed = 11;
  return config;
}

std::string RunAndSerialize(const Dataset& data, const DetectorConfig& config) {
  const DetectionResult result = OutlierDetector(config).Detect(data);
  return ProjectionsToCsv(result.report) + OutliersToCsv(result.report);
}

// Every (kernel, container threshold, threads) variant must reproduce the
// baseline report byte for byte.
TEST(ReportIdentityTest, InvariantAcrossKernelsContainersAndThreads) {
  SubspaceOutlierConfig gen;
  gen.num_points = 250;
  gen.num_dims = 8;
  gen.num_groups = 2;
  gen.num_outliers = 4;
  gen.seed = 3;
  const GeneratedDataset g = GenerateSubspaceOutliers(gen);

  const std::string baseline = RunAndSerialize(g.data, BaseConfig());
  ASSERT_FALSE(baseline.empty());

  // Kernel axis: force every kernel this host can run.
  for (KernelKind kind : AvailableKernels()) {
    ScopedKernelOverride forced(kind);
    EXPECT_EQ(RunAndSerialize(g.data, BaseConfig()), baseline)
        << "kernel " << KernelKindName(kind);
  }

  // Container-threshold axis: all bitmaps, all arrays, and the auto mix.
  for (size_t threshold :
       {size_t{0}, size_t{gen.num_points + 1}, GridModel::kAutoArrayThreshold}) {
    DetectorConfig config = BaseConfig();
    config.container_threshold = threshold;
    EXPECT_EQ(RunAndSerialize(g.data, config), baseline)
        << "container_threshold " << threshold;
  }

  // Thread axis.
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    DetectorConfig config = BaseConfig();
    config.num_threads = threads;
    EXPECT_EQ(RunAndSerialize(g.data, config), baseline)
        << "threads " << threads;
  }

  // Cross terms: the axes compose — a scalar-kernel, all-array,
  // multi-threaded run still reproduces the baseline.
  {
    ScopedKernelOverride forced(KernelKind::kScalar);
    DetectorConfig config = BaseConfig();
    config.container_threshold = gen.num_points + 1;
    config.num_threads = 8;
    EXPECT_EQ(RunAndSerialize(g.data, config), baseline);
  }
  {
    ScopedKernelOverride forced(BestAvailableKernel());
    DetectorConfig config = BaseConfig();
    config.container_threshold = 0;
    config.num_threads = 2;
    EXPECT_EQ(RunAndSerialize(g.data, config), baseline);
  }
}

// Same contract for the brute-force search, which drives the container
// AndInto/MaterializeInto descent directly.
TEST(ReportIdentityTest, BruteForceInvariantAcrossKernelsAndContainers) {
  SubspaceOutlierConfig gen;
  gen.num_points = 150;
  gen.num_dims = 5;
  gen.num_groups = 2;
  gen.num_outliers = 3;
  gen.seed = 9;
  const GeneratedDataset g = GenerateSubspaceOutliers(gen);

  DetectorConfig base = BaseConfig();
  base.algorithm = SearchAlgorithm::kBruteForce;
  base.target_dim = 2;
  const std::string baseline = RunAndSerialize(g.data, base);
  ASSERT_FALSE(baseline.empty());

  for (KernelKind kind : AvailableKernels()) {
    for (size_t threshold : {size_t{0}, size_t{gen.num_points + 1}}) {
      ScopedKernelOverride forced(kind);
      DetectorConfig config = base;
      config.container_threshold = threshold;
      EXPECT_EQ(RunAndSerialize(g.data, config), baseline)
          << KernelKindName(kind) << " threshold " << threshold;
    }
  }
}

}  // namespace
}  // namespace hido
