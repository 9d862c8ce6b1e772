#include "ensemble/ensemble_detector.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/macros.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/local_search.h"
#include "core/parameter_advisor.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hido {
namespace ensemble {

namespace {

// Member/combiner wall-clock buckets: 0.1ms .. 100s, 1-2-5 per decade —
// wide enough for a toy test grid and a 10^5-row production fit alike.
const std::vector<double>& DurationBounds() {
  static const std::vector<double> bounds{
      1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 0.1,
      0.2,  0.5,  1.0,  2.0,  5.0,  10.0, 20.0, 50.0, 100.0};
  return bounds;
}

// One registry event per finished Detect: run/member volume counters and
// the stop-cause breakdown shared with the single-run detector.
void PublishEnsembleMetrics(const EnsembleDetectionResult& result) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("ensemble.runs").Add(1);
  registry.GetCounter("ensemble.members_run").Add(result.members.size());
  size_t projections = 0;
  for (const EnsembleMemberResult& member : result.members) {
    projections += member.projections.size();
  }
  registry.GetCounter("ensemble.projections_reported").Add(projections);
  if (result.stop_cause != StopCause::kNone) {
    registry
        .GetCounter(std::string("run.stops.") +
                    StopCauseToString(result.stop_cause))
        .Add(1);
  }
}

// Liu & Fokoué random-subspace member: sample a dimension pool with the
// member's RNG, then spend the evaluation budget on uniform random cubes
// inside that pool, funnelled through the shared BestSet semantics.
void RunRandomSubspaceMember(SparsityObjective& objective, size_t target_dim,
                             size_t num_projections,
                             const EnsembleOptions& options,
                             const StopToken* stop,
                             EnsembleMemberResult* member) {
  const GridModel& grid = objective.grid();
  const size_t num_dims = grid.num_dims();
  const size_t phi = grid.phi();
  Rng rng(member->seed);

  const size_t pool_size =
      std::min(std::max((num_dims + 1) / 2, target_dim), num_dims);
  std::vector<size_t> pool;
  rng.SampleWithoutReplacement(num_dims, pool_size, &pool);

  // One candidate and one pick buffer, reused for every cube; a cube
  // becomes a ScoredProjection only when the best set could take it.
  BestSet best(num_projections);
  std::vector<size_t> picks;
  ScoredProjection candidate;
  candidate.projection = Projection(num_dims);
  uint64_t evaluations = 0;
  for (uint64_t i = 0; i < options.subspace_evaluations; ++i) {
    if (stop != nullptr && i % 256 == 0 && stop->ShouldStop()) {
      member->completed = false;
      break;
    }
    rng.SampleWithoutReplacement(pool.size(), target_dim, &picks);
    candidate.projection.Clear();
    for (const size_t pick : picks) {
      candidate.projection.Specify(
          pool[pick], static_cast<uint32_t>(rng.UniformIndex(phi)));
    }
    const CubeEvaluation eval = objective.Evaluate(candidate.projection);
    ++evaluations;
    if (eval.count > 0 && best.WouldAccept(eval.sparsity)) {
      candidate.count = eval.count;
      candidate.sparsity = eval.sparsity;
      best.Offer(candidate);
    }
  }
  member->evaluations = evaluations;
  member->projections = best.Sorted();
}

}  // namespace

EnsembleDetector::EnsembleDetector(const EnsembleConfig& config)
    : config_(config) {
  if (config_.ensemble.num_members == 0) config_.ensemble.num_members = 1;
  HIDO_CHECK(config_.base.sparsity_target < 0.0 ||
             config_.base.target_dim != 0);
  HIDO_CHECK(config_.base.num_projections >= 1);
}

EnsembleDetectionResult EnsembleDetector::Detect(const Dataset& data) const {
  HIDO_CHECK(data.num_rows() >= 1);
  HIDO_CHECK(data.num_cols() >= 1);

  StopWatch watch;
  const DetectorConfig& base = config_.base;
  const EnsembleOptions& options = config_.ensemble;

  EnsembleDetectionResult result;
  result.combiner = options.combiner;

  const ParameterAdvice advice = AdviseParameters(
      data.num_rows(), data.num_cols(), base.sparsity_target, base.phi);
  result.phi = advice.phi;
  result.target_dim = base.target_dim != 0
                          ? std::min(base.target_dim, data.num_cols())
                          : advice.k;

  GridModel::Options gopts;
  gopts.phi = result.phi;
  gopts.mode = base.binning;
  Result<GridModel> grid =
      GridModel::Build(data, gopts, base.stop, SearchThreads(base));
  if (!grid.ok()) {
    result.completed = false;
    result.stop_cause =
        base.stop != nullptr ? base.stop->cause() : StopCause::kNone;
    result.seconds = watch.ElapsedSeconds();
    PublishEnsembleMetrics(result);
    return result;
  }
  result.grid = std::move(grid).value();

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Histogram& member_duration = registry.GetHistogram(
      "ensemble.member.duration_seconds", DurationBounds());

  const std::vector<MemberKind> kinds =
      ResolveMemberKinds(options.mix, options.num_members);

  // Members run sequentially in member order — each member's search fans
  // out internally on the shared pool with the full thread budget.
  // Determinism of the *results* needs only per-member determinism, which
  // each strategy guarantees for its derived seed.
  std::vector<std::vector<PointScore>> member_scores;
  std::vector<double> scales;
  for (size_t index = 0; index < kinds.size(); ++index) {
    if (base.stop != nullptr && base.stop->ShouldStop()) {
      result.completed = false;
      result.stop_cause = base.stop->cause();
      break;
    }
    const obs::TraceSpan member_span("ensemble_member");
    StopWatch member_watch;
    EnsembleMemberResult member;
    member.kind = kinds[index];
    member.seed = DeriveMemberSeed(base.seed, index);

    SparsityObjective objective(result.grid, base.expectation);

    switch (member.kind) {
      case MemberKind::kGa: {
        EvolutionaryOptions eopts = base.evolution;
        eopts.target_dim = result.target_dim;
        eopts.num_projections = base.num_projections;
        eopts.seed = member.seed;
        eopts.num_threads = SearchThreads(base);
        eopts.stop = base.stop;
        EvolutionResult search = EvolutionarySearch(objective, eopts);
        member.completed = search.stats.completed;
        member.evaluations = search.stats.evaluations;
        member.projections = std::move(search.best);
        break;
      }
      case MemberKind::kRandomSubspace:
        RunRandomSubspaceMember(objective, result.target_dim,
                                base.num_projections, options, base.stop,
                                &member);
        break;
      case MemberKind::kHillClimb:
      case MemberKind::kAnneal: {
        LocalSearchOptions lopts;
        lopts.method = member.kind == MemberKind::kHillClimb
                           ? LocalSearchMethod::kHillClimbing
                           : LocalSearchMethod::kSimulatedAnnealing;
        lopts.target_dim = result.target_dim;
        lopts.num_projections = base.num_projections;
        lopts.max_evaluations = options.local_evaluations;
        lopts.seed = member.seed;
        lopts.stop = base.stop;
        LocalSearchResult search = LocalSearch(objective, lopts);
        member.completed = search.stats.completed;
        member.evaluations = search.stats.evaluations;
        member.projections = std::move(search.best);
        break;
      }
    }

    member_scores.push_back(ScoreAllPoints(result.grid, member.projections));
    member.score_scale = MemberScoreScale(member_scores.back());
    scales.push_back(member.score_scale);
    member.seconds = member_watch.ElapsedSeconds();
    member_duration.Observe(member.seconds);
    if (!member.completed) {
      result.completed = false;
      result.stop_cause =
          base.stop != nullptr ? base.stop->cause() : StopCause::kNone;
    }
    result.members.push_back(std::move(member));
    if (!result.completed) break;
  }

  {
    const obs::TraceSpan combine_span("ensemble_combine");
    StopWatch combine_watch;
    result.scores =
        CombineMemberScores(result.combiner, member_scores, scales);
    result.ranked_rows = RankEnsembleRows(result.scores);
    registry.GetHistogram("ensemble.combine.seconds", DurationBounds())
        .Observe(combine_watch.ElapsedSeconds());
  }

  result.seconds = watch.ElapsedSeconds();
  PublishEnsembleMetrics(result);
  return result;
}

}  // namespace ensemble
}  // namespace hido
