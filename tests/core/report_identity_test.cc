// The determinism contract, end to end: the detection report is a pure
// function of (data, seed, logical configuration). Counting kernels and
// thread counts change which code computes each count — never the count —
// so the serialized report must be byte-identical across all of them.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/bitset_kernels.h"
#include "core/detector.h"
#include "core/report_io.h"
#include "data/generators/synthetic.h"
#include "testing/heavy_tail.h"

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

// Every (kernel, threads) variant must reproduce the baseline report byte
// for byte, on the generated input and on its heavy-tailed copy under
// equi-width ranges, where most ranges hold a handful of rows.
TEST(ReportIdentityTest, InvariantAcrossKernelsAndThreads) {
  SubspaceOutlierConfig gen;
  gen.num_points = 250;
  gen.num_dims = 8;
  gen.num_groups = 2;
  gen.num_outliers = 4;
  gen.seed = 3;
  const GeneratedDataset g = GenerateSubspaceOutliers(gen);
  DetectorConfig equi_width = BaseConfig();
  equi_width.binning = BinningMode::kEquiWidth;
  const struct {
    const char* name;
    Dataset data;
    DetectorConfig config;
  } inputs[] = {{"generated", g.data, BaseConfig()},
                {"heavy-tailed equi-width", HeavyTailed(g.data), equi_width}};

  for (const auto& input : inputs) {
    SCOPED_TRACE(input.name);
    const std::string baseline = RunAndSerialize(input.data, input.config);
    ASSERT_FALSE(baseline.empty());
    for (const KernelKind kind : AvailableKernels()) {
      const ScopedKernelOverride forced(kind);
      for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
        DetectorConfig config = input.config;
        config.num_threads = threads;
        EXPECT_EQ(RunAndSerialize(input.data, config), baseline)
            << "kernel " << KernelKindName(kind) << " threads " << threads;
      }
    }
  }
}

// Same contract for the brute-force search, which ANDs the range bitmaps
// down its prefix tree directly.
TEST(ReportIdentityTest, BruteForceInvariantAcrossKernels) {
  SubspaceOutlierConfig gen;
  gen.num_points = 150;
  gen.num_dims = 5;
  gen.num_groups = 2;
  gen.num_outliers = 3;
  gen.seed = 9;
  const GeneratedDataset g = GenerateSubspaceOutliers(gen);

  DetectorConfig base = BaseConfig();
  base.algorithm = SearchAlgorithm::kBruteForce;
  base.target_dim = 3;
  const std::string baseline = RunAndSerialize(g.data, base);
  ASSERT_FALSE(baseline.empty());

  for (const KernelKind kind : AvailableKernels()) {
    const ScopedKernelOverride forced(kind);
    for (const size_t threads : {size_t{1}, size_t{4}}) {
      DetectorConfig config = base;
      config.num_threads = threads;
      EXPECT_EQ(RunAndSerialize(g.data, config), baseline)
          << KernelKindName(kind) << " threads " << threads;
    }
  }
}

}  // namespace
}  // namespace hido
