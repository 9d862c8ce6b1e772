#include "core/detector.h"

#include <algorithm>

#include "common/macros.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "core/parameter_advisor.h"
#include "core/search_checkpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hido {

namespace {

// One registry event per finished Detect: volume counters plus a
// stop-cause breakdown (run.stops.<cause>, omitted for clean completion).
void PublishDetectMetrics(const DetectionResult& result) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("detect.runs").Add(1);
  registry.GetCounter("detect.projections_reported")
      .Add(result.report.projections.size());
  registry.GetCounter("detect.points_flagged")
      .Add(result.report.outliers.size());
  if (result.stop_cause != StopCause::kNone) {
    registry
        .GetCounter(std::string("run.stops.") +
                    StopCauseToString(result.stop_cause))
        .Add(1);
  }
}

// φ and k for `data`: the configured values, or §2.4's when left at 0.
struct ResolvedParameters {
  size_t phi = 0;
  size_t target_dim = 0;
};

ResolvedParameters Resolve(const DetectorConfig& config,
                           const Dataset& data) {
  const ParameterAdvice advice = AdviseParameters(
      data.num_rows(), data.num_cols(), config.sparsity_target, config.phi);
  return {advice.phi, config.target_dim != 0
                          ? std::min(config.target_dim, data.num_cols())
                          : advice.k};
}

// The options the evolutionary search runs with.
EvolutionaryOptions EvolutionOptions(const DetectorConfig& config,
                                     size_t target_dim) {
  EvolutionaryOptions options = config.evolution;
  options.target_dim = target_dim;
  options.num_projections = config.num_projections;
  options.seed = config.seed;
  options.num_threads = SearchThreads(config);
  options.stop = config.stop;
  return options;
}

}  // namespace

size_t SearchThreads(const DetectorConfig& config) {
  return config.num_threads == 0 ? HardwareThreads() : config.num_threads;
}

OutlierDetector::OutlierDetector() : config_() {}

OutlierDetector::OutlierDetector(const DetectorConfig& config)
    : config_(config) {
  HIDO_CHECK(config_.sparsity_target < 0.0 || config_.target_dim != 0);
  HIDO_CHECK(config_.num_projections >= 1);
}

DetectionResult OutlierDetector::Detect(const Dataset& data) const {
  HIDO_CHECK(data.num_rows() >= 1);
  HIDO_CHECK(data.num_cols() >= 1);

  StopWatch watch;
  DetectionResult result;
  result.algorithm = config_.algorithm;

  const ResolvedParameters resolved = Resolve(config_, data);
  result.phi = resolved.phi;
  result.target_dim = resolved.target_dim;

  GridModel::Options gopts;
  gopts.phi = result.phi;
  gopts.mode = config_.binning;
  // Grid construction honours the caller's stop token too (ROADMAP: it
  // used to be the one uninterruptible phase of Detect). A cancel here
  // yields the searches' best-so-far shape with nothing found yet: an
  // empty report, completed = false, and the token's cause.
  Result<GridModel> grid =
      GridModel::Build(data, gopts, config_.stop, SearchThreads(config_));
  if (!grid.ok()) {
    result.completed = false;
    result.stop_cause = config_.stop->cause();
    result.seconds = watch.ElapsedSeconds();
    PublishDetectMetrics(result);
    return result;
  }
  result.grid = std::move(grid).value();

  SparsityObjective objective(result.grid, config_.expectation);

  std::vector<ScoredProjection> best;
  if (config_.algorithm == SearchAlgorithm::kEvolutionary) {
    EvolutionResult search = EvolutionarySearch(
        objective, EvolutionOptions(config_, result.target_dim));
    result.evolution_stats = search.stats;
    result.completed = search.stats.completed;
    result.stop_cause = search.stats.stop_cause;
    best = std::move(search.best);
  } else {
    BruteForceOptions bopts;
    bopts.target_dim = result.target_dim;
    bopts.num_projections = config_.num_projections;
    bopts.num_threads = SearchThreads(config_);
    bopts.stop = config_.stop;
    BruteForceResult search = BruteForceSearch(objective, bopts);
    result.brute_force_stats = search.stats;
    result.completed = search.stats.completed;
    result.stop_cause = search.stats.stop_cause;
    best = std::move(search.best);
  }

  {
    const obs::TraceSpan postprocess_span("postprocess");
    result.report = ExtractOutliers(result.grid, std::move(best));
  }
  result.seconds = watch.ElapsedSeconds();
  PublishDetectMetrics(result);
  return result;
}

Status OutlierDetector::CheckResume(const Dataset& data) const {
  const EvolutionCheckpoint* resume = config_.evolution.resume;
  if (resume == nullptr ||
      config_.algorithm != SearchAlgorithm::kEvolutionary) {
    return Status::Ok();
  }
  const ResolvedParameters resolved = Resolve(config_, data);
  return ValidateCheckpoint(
      *resume, EvolutionOptions(config_, resolved.target_dim),
      {data.num_rows(), data.num_cols(), resolved.phi}, config_.expectation);
}

}  // namespace hido
