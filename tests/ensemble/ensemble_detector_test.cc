// Acceptance tests for the ensemble meta-detector
// (ensemble/ensemble_detector.h): the combined report is byte-identical
// across thread counts, members are decorrelated and diverse, the
// ensemble.* registry family publishes, and a stop degrades to a valid
// best-so-far ensemble instead of failing.

#include "ensemble/ensemble_detector.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/run_control.h"
#include "common/string_util.h"
#include "core/local_search.h"
#include "data/generators/synthetic.h"
#include "obs/metrics.h"

namespace hido {
namespace ensemble {
namespace {

Dataset MakeData() { return GenerateUniform(300, 8, 13); }

EnsembleConfig MakeConfig(size_t threads) {
  EnsembleConfig config;
  config.base.phi = 4;
  config.base.target_dim = 2;
  config.base.num_projections = 6;
  config.base.evolution.population_size = 24;
  config.base.evolution.max_generations = 10;
  config.base.evolution.stagnation_generations = 0;
  config.base.evolution.restarts = 1;
  config.base.seed = 29;
  config.base.num_threads = threads;
  config.ensemble.num_members = 4;
  config.ensemble.combiner = CombinerKind::kMeanNormalized;
  config.ensemble.mix = {MemberKind::kGa, MemberKind::kRandomSubspace,
                         MemberKind::kHillClimb, MemberKind::kAnneal};
  config.ensemble.subspace_evaluations = 3000;
  config.ensemble.local_evaluations = 3000;
  return config;
}

// Everything deterministic about a result, flattened to bytes: member
// identities and projections, combined scores, and the final ranking.
// Wall-clock fields are deliberately excluded.
std::string SerializeResult(const EnsembleDetectionResult& result) {
  std::string out = StrFormat("phi=%zu|k=%zu|combiner=%s\n", result.phi,
                              result.target_dim,
                              CombinerKindToString(result.combiner));
  for (const EnsembleMemberResult& member : result.members) {
    out += StrFormat("member %s seed=%llu scale=%.17g evals=%llu\n",
                     MemberKindToString(member.kind),
                     static_cast<unsigned long long>(member.seed),
                     member.score_scale,
                     static_cast<unsigned long long>(member.evaluations));
    for (const ScoredProjection& s : member.projections) {
      out += StrFormat("  %s|count=%zu|sparsity=%.17g\n",
                       s.projection.ToString().c_str(), s.count, s.sparsity);
    }
  }
  for (const EnsemblePointScore& s : result.scores) {
    out += StrFormat("row=%zu|score=%.17g|covering=%zu\n", s.row, s.score,
                     s.covering_projections);
  }
  for (const size_t row : result.ranked_rows) {
    out += StrFormat("%zu,", row);
  }
  out += "\n";
  return out;
}

// The tentpole acceptance criterion: one baseline at 1 thread, then every
// thread count must reproduce it byte for byte.
TEST(EnsembleDetectorTest, ResultBytesInvariantAcrossThreads) {
  const Dataset data = MakeData();
  const EnsembleDetectionResult baseline_result =
      EnsembleDetector(MakeConfig(1)).Detect(data);
  ASSERT_TRUE(baseline_result.completed);
  const std::string baseline = SerializeResult(baseline_result);
  ASSERT_FALSE(baseline_result.scores.empty());

  for (const size_t threads : {1u, 2u, 8u}) {
    const EnsembleDetectionResult result =
        EnsembleDetector(MakeConfig(threads)).Detect(data);
    EXPECT_TRUE(result.completed);
    EXPECT_EQ(SerializeResult(result), baseline) << "threads=" << threads;
  }
}

TEST(EnsembleDetectorTest, MembersAreDecorrelatedAndDiverse) {
  const Dataset data = MakeData();
  const EnsembleDetectionResult result =
      EnsembleDetector(MakeConfig(2)).Detect(data);
  ASSERT_EQ(result.members.size(), 4u);
  EXPECT_EQ(result.members[0].kind, MemberKind::kGa);
  EXPECT_EQ(result.members[1].kind, MemberKind::kRandomSubspace);
  EXPECT_EQ(result.members[2].kind, MemberKind::kHillClimb);
  EXPECT_EQ(result.members[3].kind, MemberKind::kAnneal);
  for (size_t i = 0; i < result.members.size(); ++i) {
    EXPECT_FALSE(result.members[i].projections.empty()) << "member " << i;
    EXPECT_GT(result.members[i].evaluations, 0u) << "member " << i;
    for (size_t j = i + 1; j < result.members.size(); ++j) {
      EXPECT_NE(result.members[i].seed, result.members[j].seed)
          << i << " vs " << j;
    }
  }
  // The combined ranking covers every row exactly once.
  EXPECT_EQ(result.scores.size(), data.num_rows());
  EXPECT_EQ(result.ranked_rows.size(), data.num_rows());
}

TEST(EnsembleDetectorTest, PublishesEnsembleMetricsFamily) {
  obs::MetricsRegistry::Global().ResetForTest();
  const Dataset data = MakeData();
  EnsembleDetector(MakeConfig(1)).Detect(data);
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Global().TakeSnapshot();

  auto counter = [&](const std::string& name) -> uint64_t {
    for (const obs::CounterSample& sample : snapshot.counters) {
      if (sample.name == name) return sample.value;
    }
    ADD_FAILURE() << "counter not published: " << name;
    return 0;
  };
  EXPECT_EQ(counter("ensemble.runs"), 1u);
  EXPECT_EQ(counter("ensemble.members_run"), 4u);
  EXPECT_GT(counter("ensemble.projections_reported"), 0u);

  bool saw_member_duration = false;
  bool saw_combine = false;
  for (const obs::HistogramSample& sample : snapshot.histograms) {
    if (sample.name == "ensemble.member.duration_seconds") {
      saw_member_duration = true;
      EXPECT_EQ(sample.snapshot.total_count, 4u);
    }
    if (sample.name == "ensemble.combine.seconds") saw_combine = true;
  }
  EXPECT_TRUE(saw_member_duration);
  EXPECT_TRUE(saw_combine);
}

TEST(EnsembleDetectorTest, StopDegradesToBestSoFarEnsemble) {
  const Dataset data = MakeData();
  EnsembleConfig config = MakeConfig(1);
  StopToken token;
  // Budget chosen to trip after the grid build but before the last member:
  // polls come from the grid build, the GA (~one per generation), the
  // member loop (one per member), and the random-subspace, hill-climb and
  // anneal members (one per 256 evaluations), a few dozen in all.
  token.ArmFailpoint(20);
  config.base.stop = &token;
  const EnsembleDetectionResult result =
      EnsembleDetector(config).Detect(data);
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.stop_cause, StopCause::kFailpoint);
  EXPECT_LT(result.members.size(), 4u);
  // Whatever completed before the stop is still combined and ranked.
  EXPECT_EQ(result.scores.size(), data.num_rows());
  EXPECT_EQ(result.ranked_rows.size(), data.num_rows());
}

// A stop that fires as a hill-climb or anneal member starts, or inside
// it, ends that member within one poll stride. The members before it are
// kept as they were, the stopped one keeps its best-so-far cubes, and the
// run is incomplete.
TEST(EnsembleDetectorTest, StopInsideLocalMemberKeepsEarlierMembers) {
  const Dataset data = MakeData();
  EnsembleConfig ga_config = MakeConfig(1);
  ga_config.ensemble.num_members = 1;
  ga_config.ensemble.mix = {MemberKind::kGa};
  StopToken counting;
  ga_config.base.stop = &counting;
  const EnsembleDetectionResult ga_only =
      EnsembleDetector(ga_config).Detect(data);
  ASSERT_TRUE(ga_only.completed);
  // A two-member run repeats those polls, then polls once in the member
  // loop and once per 256 evaluations of the local member: the failpoint
  // fires at that member's first or second poll.
  for (const uint64_t local_poll : {1u, 2u}) {
    for (const MemberKind local :
         {MemberKind::kHillClimb, MemberKind::kAnneal}) {
      SCOPED_TRACE(StrFormat("%s, poll %llu", MemberKindToString(local),
                             static_cast<unsigned long long>(local_poll)));
      EnsembleConfig config = MakeConfig(1);
      StopToken token;
      token.ArmFailpoint(counting.polls() + 1 + local_poll);
      config.base.stop = &token;
      config.ensemble.num_members = 2;
      config.ensemble.mix = {MemberKind::kGa, local};
      const EnsembleDetectionResult result =
          EnsembleDetector(config).Detect(data);
      EXPECT_FALSE(result.completed);
      EXPECT_EQ(result.stop_cause, StopCause::kFailpoint);
      ASSERT_EQ(result.members.size(), 2u);
      EXPECT_TRUE(result.members[0].completed);
      EXPECT_EQ(result.members[0].evaluations,
                ga_only.members[0].evaluations);
      ASSERT_EQ(result.members[0].projections.size(),
                ga_only.members[0].projections.size());
      for (size_t i = 0; i < ga_only.members[0].projections.size(); ++i) {
        EXPECT_EQ(result.members[0].projections[i].projection,
                  ga_only.members[0].projections[i].projection);
      }
      const uint64_t evaluations =
          (local_poll - 1) * LocalSearchOptions::kStopPollStride;
      EXPECT_EQ(result.members[1].kind, local);
      EXPECT_FALSE(result.members[1].completed);
      EXPECT_EQ(result.members[1].evaluations, evaluations);
      EXPECT_EQ(result.members[1].projections.empty(), evaluations == 0);
      EXPECT_EQ(result.scores.size(), data.num_rows());
    }
  }
}

TEST(EnsembleDetectorTest, ZeroMembersClampsToOne) {
  EnsembleConfig config = MakeConfig(1);
  config.ensemble.num_members = 0;
  config.ensemble.mix.clear();
  const EnsembleDetector detector(config);
  EXPECT_EQ(detector.config().ensemble.num_members, 1u);
  const EnsembleDetectionResult result = detector.Detect(MakeData());
  ASSERT_EQ(result.members.size(), 1u);
  EXPECT_EQ(result.members[0].kind, MemberKind::kGa);
}

}  // namespace
}  // namespace ensemble
}  // namespace hido
