// Acceptance tests for the telemetry determinism contract
// (obs/telemetry.h): the deterministic sections of a run's metrics are
// byte-identical at any thread count, and a run resumed from a checkpoint
// publishes the same cumulative counters as one that was never
// interrupted.

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/bitset_kernels.h"
#include "common/run_control.h"
#include "common/string_util.h"
#include "core/detector.h"
#include "core/search_checkpoint.h"
#include "data/generators/synthetic.h"
#include "obs/telemetry.h"

namespace hido {
namespace obs {
namespace {

// Histograms documented as wall-clock (`variant` in the contract): span
// durations (trace.<span>.seconds), member/combine durations, and the
// serve-side latency family. Their *presence* is thread-invariant; their
// bucket contents are timing and stay out of the compared bytes.
bool IsThreadVariantHistogram(const std::string& name) {
  return name.rfind("trace.", 0) == 0 || name.rfind("serve.", 0) == 0 ||
         name.rfind("ensemble.", 0) == 0;
}

// Flattens a report to bytes so runs can be compared for the documented
// bit-identical-results contract.
std::string SerializeReport(const OutlierReport& report) {
  std::string out;
  for (const ScoredProjection& s : report.projections) {
    out += s.projection.ToString();
    out += StrFormat("|count=%zu|sparsity=%.17g\n", s.count, s.sparsity);
  }
  for (const OutlierRecord& o : report.outliers) {
    out += StrFormat("row=%zu|best=%.17g|covering=", o.row, o.best_sparsity);
    for (size_t id : o.projection_ids) out += StrFormat("%zu,", id);
    out += "\n";
  }
  return out;
}

// Runs one full detection at `threads` workers against a clean registry
// and returns the serialized counter + invariant histogram sections.
std::string DetectAndSerializeInvariantSections(
    const Dataset& data, size_t threads, std::string* report_bytes = nullptr) {
  MetricsRegistry::Global().ResetForTest();
  Tracer::Global().Reset();

  DetectorConfig config;
  config.phi = 4;
  config.target_dim = 2;
  config.num_projections = 6;
  config.evolution.population_size = 24;
  config.evolution.max_generations = 15;
  config.evolution.stagnation_generations = 0;
  config.evolution.restarts = 2;
  config.seed = 29;
  config.num_threads = threads;
  const DetectionResult result = OutlierDetector(config).Detect(data);
  EXPECT_TRUE(result.completed);
  if (report_bytes != nullptr) *report_bytes = SerializeReport(result.report);

  RunTelemetry telemetry = CaptureRunTelemetry("invariance test");
  RunTelemetry filtered;
  filtered.tool = telemetry.tool;
  filtered.metrics.counters = telemetry.metrics.counters;
  for (const HistogramSample& histogram : telemetry.metrics.histograms) {
    if (!IsThreadVariantHistogram(histogram.name)) {
      filtered.metrics.histograms.push_back(histogram);
    }
  }
  // Gauges (pool.*) and timing are wall-clock/schedule territory by
  // definition; they stay out of the compared bytes.
  return SerializeRunTelemetry(filtered);
}

// Every counter is thread-invariant: with no memo, each query is counted
// once whichever worker runs it.
TEST(TelemetryInvarianceTest, InvariantCountersAreByteIdenticalAcrossThreads) {
  const Dataset data = GenerateUniform(300, 8, 13);
  std::string report_at_one;
  const std::string at_one =
      DetectAndSerializeInvariantSections(data, 1, &report_at_one);
  ASSERT_FALSE(report_at_one.empty());
  for (const size_t threads : {2u, 8u}) {
    std::string report;
    EXPECT_EQ(DetectAndSerializeInvariantSections(data, threads, &report),
              at_one)
        << "threads=" << threads;
    EXPECT_EQ(report, report_at_one) << "threads=" << threads;
  }
  // Sanity: the compared bytes actually contain the work counters.
  EXPECT_NE(at_one.find("search.evaluations"), std::string::npos);
  EXPECT_NE(at_one.find("search.crossovers"), std::string::npos);
  EXPECT_NE(at_one.find("counter.queries"), std::string::npos);
  EXPECT_NE(at_one.find("grid.cells_indexed"), std::string::npos);
  EXPECT_NE(at_one.find("search.restart_generations"), std::string::npos);
}

// The counting-substrate acceptance criterion (kernels are an encoding
// choice): the report and every counter are byte-identical under every
// counting kernel this host can run, alone and crossed with threads.
TEST(TelemetryInvarianceTest,
     ReportAndInvariantCountersAreIdenticalAcrossKernelsAndThreads) {
  const Dataset data = GenerateUniform(300, 8, 13);
  std::string baseline_report;
  const std::string baseline =
      DetectAndSerializeInvariantSections(data, 1, &baseline_report);
  ASSERT_FALSE(baseline_report.empty());
  for (const KernelKind kind : AvailableKernels()) {
    const ScopedKernelOverride forced(kind);
    for (const size_t threads : {1u, 8u}) {
      std::string report;
      const std::string sections =
          DetectAndSerializeInvariantSections(data, threads, &report);
      EXPECT_EQ(sections, baseline)
          << "kernel=" << KernelKindName(kind) << " threads=" << threads;
      EXPECT_EQ(report, baseline_report)
          << "kernel=" << KernelKindName(kind) << " threads=" << threads;
    }
  }
}

uint64_t CounterValue(const MetricsSnapshot& snapshot,
                      const std::string& name) {
  for (const CounterSample& counter : snapshot.counters) {
    if (counter.name == name) return counter.value;
  }
  ADD_FAILURE() << "counter not published: " << name;
  return 0;
}

// The shared-cache acceptance criterion: memoization changed which code
// path computed a count, never its value. The cache modes (private, shared,
// off) went with the memo layer; what stays is that the memo-free counter
// reproduces the report and invariant counters that every mode produced at
// 1, 2 and 8 threads (pinned below from a cached build).
TEST(TelemetryInvarianceTest,
     ReportAndInvariantCountersAreIdenticalAcrossCacheModes) {
  const Dataset data = GenerateUniform(300, 8, 13);
  const std::string cached_projections =
      "*2*1****|count=8|sparsity=-2.5640246141997589\n"
      "***3***2|count=9|sparsity=-2.3255106965997814\n"
      "2**3****|count=11|sparsity=-1.8484828613998263\n"
      "*4***1**|count=11|sparsity=-1.8484828613998263\n"
      "**32****|count=11|sparsity=-1.8484828613998263\n"
      "****3**4|count=11|sparsity=-1.8484828613998263\n";
  for (const size_t threads : {1u, 2u, 8u}) {
    std::string report;
    DetectAndSerializeInvariantSections(data, threads, &report);
    const MetricsSnapshot snapshot = MetricsRegistry::Global().TakeSnapshot();
    EXPECT_EQ(report.substr(0, cached_projections.size()), cached_projections)
        << "threads=" << threads;
    EXPECT_EQ(CounterValue(snapshot, "detect.points_flagged"), 57u)
        << "threads=" << threads;
    EXPECT_EQ(CounterValue(snapshot, "counter.queries"), 2497u)
        << "threads=" << threads;
  }
}

// The resume-continuity acceptance criterion: interrupt a search, resume
// it from the checkpoint, and the resumed run's *published* cumulative
// counters equal the uninterrupted run's — the tallies persist through the
// checkpoint (format v2 `ops` line) instead of restarting at zero.
TEST(TelemetryInvarianceTest, ResumedRunPublishesUninterruptedTotals) {
  const Dataset data = GenerateUniform(300, 8, 7);
  GridModel::Options grid_options;
  grid_options.phi = 4;
  const GridModel grid = GridModel::Build(data, grid_options);
  CubeCounter counter(grid);
  SparsityObjective objective(counter);

  EvolutionaryOptions opts;
  opts.target_dim = 2;
  opts.num_projections = 6;
  opts.population_size = 24;
  opts.max_generations = 40;
  opts.stagnation_generations = 0;
  opts.restarts = 3;
  opts.seed = 17;

  MetricsRegistry::Global().ResetForTest();
  const EvolutionResult uninterrupted = EvolutionarySearch(objective, opts);
  ASSERT_TRUE(uninterrupted.stats.completed);
  const MetricsSnapshot full = MetricsRegistry::Global().TakeSnapshot();

  const std::string path =
      ::testing::TempDir() + "/hido_telemetry_resume.txt";
  EvolutionaryOptions interrupted_opts = opts;
  interrupted_opts.checkpoint_path = path;
  interrupted_opts.checkpoint_every_generations = 3;
  StopToken token;
  token.ArmFailpoint(20);
  interrupted_opts.stop = &token;
  const EvolutionResult interrupted =
      EvolutionarySearch(objective, interrupted_opts);
  ASSERT_FALSE(interrupted.stats.completed);

  Result<EvolutionCheckpoint> checkpoint = LoadCheckpoint(path);
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();

  MetricsRegistry::Global().ResetForTest();
  EvolutionaryOptions resume_opts = opts;
  resume_opts.resume = &checkpoint.value();
  const EvolutionResult resumed = EvolutionarySearch(objective, resume_opts);
  ASSERT_TRUE(resumed.stats.completed);
  const MetricsSnapshot after_resume =
      MetricsRegistry::Global().TakeSnapshot();

  for (const char* name :
       {"search.runs", "search.generations", "search.evaluations",
        "search.crossovers", "search.mutations", "search.selections",
        "search.restarts_completed", "counter.queries"}) {
    EXPECT_EQ(CounterValue(after_resume, name), CounterValue(full, name))
        << name;
  }
  EXPECT_EQ(CounterValue(after_resume, "checkpoint.resumes"), 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace obs
}  // namespace hido
