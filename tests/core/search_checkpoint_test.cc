#include "core/search_checkpoint.h"

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/run_control.h"
#include "core/evolutionary_search.h"
#include "data/generators/synthetic.h"

namespace hido {
namespace {

struct Fixture {
  Fixture(const Dataset& data, size_t phi)
      : grid(GridModel::Build(data,
                              [&] {
                                GridModel::Options o;
                                o.phi = phi;
                                return o;
                              }())),
        objective(grid) {}
  GridModel grid;
  SparsityObjective objective;
};

EvolutionaryOptions BaseOptions() {
  EvolutionaryOptions opts;
  opts.target_dim = 2;
  opts.num_projections = 6;
  opts.population_size = 24;
  opts.max_generations = 40;
  opts.stagnation_generations = 0;  // run the full generation budget
  opts.restarts = 3;
  opts.seed = 17;
  return opts;
}

void ExpectSameResult(const EvolutionResult& a, const EvolutionResult& b) {
  ASSERT_EQ(a.best.size(), b.best.size());
  for (size_t i = 0; i < a.best.size(); ++i) {
    EXPECT_EQ(a.best[i].projection, b.best[i].projection) << "entry " << i;
    EXPECT_EQ(a.best[i].count, b.best[i].count) << "entry " << i;
    EXPECT_EQ(a.best[i].sparsity, b.best[i].sparsity) << "entry " << i;
  }
  EXPECT_EQ(a.stats.generations, b.stats.generations);
  EXPECT_EQ(a.stats.evaluations, b.stats.evaluations);
  // Cumulative operator tallies must survive interrupt/resume: a resumed
  // run reports the same totals as an uninterrupted one (telemetry
  // continuity, checkpoint format `ops` line, v2+).
  EXPECT_EQ(a.stats.crossovers, b.stats.crossovers);
  EXPECT_EQ(a.stats.mutations, b.stats.mutations);
  EXPECT_EQ(a.stats.selections, b.stats.selections);
  EXPECT_EQ(a.stats.stop_reason, b.stats.stop_reason);
}

TEST(SearchCheckpointTest, ShellFingerprintsOptionsAndGrid) {
  Fixture f(GenerateUniform(200, 6, 3), 4);
  const EvolutionaryOptions opts = BaseOptions();
  const EvolutionCheckpoint shell =
      MakeCheckpointShell(opts, f.grid, f.objective.expectation());
  EXPECT_EQ(shell.seed, opts.seed);
  EXPECT_EQ(shell.restarts, opts.restarts);
  EXPECT_EQ(shell.num_dims, f.grid.num_dims());
  EXPECT_EQ(shell.phi, f.grid.phi());
  ASSERT_EQ(shell.runs.size(), opts.restarts);
  for (const RestartCheckpoint& run : shell.runs) {
    EXPECT_EQ(run.state, RestartCheckpoint::State::kUnstarted);
  }
  EXPECT_TRUE(ValidateCheckpoint(shell, opts, GridShape::Of(f.grid),
                                 f.objective.expectation())
                  .ok());
}

TEST(SearchCheckpointTest, ValidateRejectsMismatchedFingerprint) {
  Fixture f(GenerateUniform(200, 6, 3), 4);
  const EvolutionaryOptions opts = BaseOptions();
  const EvolutionCheckpoint shell =
      MakeCheckpointShell(opts, f.grid, f.objective.expectation());

  EvolutionaryOptions changed = opts;
  changed.seed = opts.seed + 1;
  const Status bad_seed = ValidateCheckpoint(
      shell, changed, GridShape::Of(f.grid), f.objective.expectation());
  EXPECT_EQ(bad_seed.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(bad_seed.message().find("seed"), std::string::npos)
      << bad_seed.ToString();

  changed = opts;
  changed.population_size += 1;
  EXPECT_FALSE(ValidateCheckpoint(shell, changed, GridShape::Of(f.grid),
                                  f.objective.expectation())
                   .ok());

  Fixture other(GenerateUniform(200, 7, 3), 4);  // different num_dims
  EXPECT_FALSE(ValidateCheckpoint(shell, opts, GridShape::Of(other.grid),
                                  other.objective.expectation())
                   .ok());
}

TEST(SearchCheckpointTest, SerializeParseRoundTripsExactly) {
  // Run a real search that checkpoints, then require parse(serialize(x)) to
  // reproduce the serialization byte-for-byte — covers done/partial states,
  // infeasible individuals, and %.17g doubles in one shot.
  Fixture f(GenerateUniform(250, 6, 5), 4);
  EvolutionaryOptions opts = BaseOptions();
  const std::string path =
      ::testing::TempDir() + "/hido_checkpoint_roundtrip.txt";
  opts.checkpoint_path = path;
  opts.checkpoint_every_generations = 4;

  StopToken token;
  token.ArmFailpoint(9);  // interrupt mid-batch: leaves partial runs behind
  opts.stop = &token;
  EvolutionarySearch(f.objective, opts);

  Result<EvolutionCheckpoint> loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const std::string first = SerializeCheckpoint(loaded.value());
  EXPECT_EQ(first.rfind("hido-checkpoint v7\n", 0), 0u);
  EXPECT_EQ(first.find("counter_stats"), std::string::npos);
  Result<EvolutionCheckpoint> reparsed = ParseCheckpoint(first);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(SerializeCheckpoint(reparsed.value()), first);
  std::remove(path.c_str());
}

TEST(SearchCheckpointTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseCheckpoint("").ok());
  EXPECT_FALSE(ParseCheckpoint("not a checkpoint").ok());
  EXPECT_FALSE(ParseCheckpoint("hido-checkpoint v7\nseed oops\n").ok());
}

TEST(SearchCheckpointTest, ParseRejectsOldFormatVersion) {
  // v1 files lack the per-restart `ops` tallies, v2-v5 carry a
  // `counter_stats` line that v6 dropped, and v1-v6 a line saying whether
  // empty cubes could be reported, which v7 dropped; checkpoints are
  // short-lived scratch state, so old versions are rejected outright rather
  // than migrated.
  for (const char* version : {"v1", "v2", "v3", "v4", "v5", "v6"}) {
    const Result<EvolutionCheckpoint> parsed = ParseCheckpoint(
        std::string("hido-checkpoint ") + version + "\nseed 17\n");
    ASSERT_FALSE(parsed.ok()) << version;
    EXPECT_NE(parsed.status().message().find("bad version"),
              std::string::npos)
        << parsed.status().ToString();
  }
}

TEST(SearchCheckpointTest, LoadMissingFileFails) {
  EXPECT_FALSE(LoadCheckpoint("/nonexistent/dir/cp.txt").ok());
}

// The acceptance property: interrupt the search mid-batch, resume from the
// checkpoint, and the merged result is bit-identical to the uninterrupted
// run — at every thread count, including resuming under a different thread
// count than the interrupted run used.
class CheckpointResumeProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(CheckpointResumeProperty, ResumeMatchesUninterruptedRun) {
  const size_t threads = GetParam();
  Fixture f(GenerateUniform(300, 8, 7), 4);

  EvolutionaryOptions opts = BaseOptions();
  opts.num_threads = threads;
  const EvolutionResult uninterrupted = EvolutionarySearch(f.objective, opts);
  EXPECT_TRUE(uninterrupted.stats.completed);

  const std::string path = ::testing::TempDir() + "/hido_checkpoint_t" +
                           std::to_string(threads) + ".txt";
  EvolutionaryOptions interrupted_opts = opts;
  interrupted_opts.checkpoint_path = path;
  interrupted_opts.checkpoint_every_generations = 3;
  StopToken token;
  token.ArmFailpoint(20);
  interrupted_opts.stop = &token;
  const EvolutionResult interrupted =
      EvolutionarySearch(f.objective, interrupted_opts);
  EXPECT_FALSE(interrupted.stats.completed);
  EXPECT_EQ(interrupted.stats.stop_cause, StopCause::kFailpoint);
  EXPECT_EQ(interrupted.stats.stop_reason, StopReason::kCancelled);

  Result<EvolutionCheckpoint> checkpoint = LoadCheckpoint(path);
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();

  // Resume under a different thread count than the run was interrupted at.
  EvolutionaryOptions resume_opts = opts;
  resume_opts.num_threads = threads == 1 ? 4 : 1;
  resume_opts.resume = &checkpoint.value();
  const EvolutionResult resumed =
      EvolutionarySearch(f.objective, resume_opts);
  EXPECT_TRUE(resumed.stats.completed);
  ExpectSameResult(uninterrupted, resumed);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, CheckpointResumeProperty,
                         ::testing::Values(1, 2, 4),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "threads_" + std::to_string(info.param);
                         });

TEST(SearchCheckpointTest, ResumingACompletedCheckpointReplaysIt) {
  Fixture f(GenerateUniform(250, 6, 11), 4);
  EvolutionaryOptions opts = BaseOptions();
  const std::string path =
      ::testing::TempDir() + "/hido_checkpoint_done.txt";
  opts.checkpoint_path = path;
  const EvolutionResult full = EvolutionarySearch(f.objective, opts);
  EXPECT_TRUE(full.stats.completed);

  Result<EvolutionCheckpoint> checkpoint = LoadCheckpoint(path);
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
  for (const RestartCheckpoint& run : checkpoint.value().runs) {
    EXPECT_EQ(run.state, RestartCheckpoint::State::kDone);
  }

  EvolutionaryOptions resume_opts = opts;
  resume_opts.checkpoint_path.clear();
  resume_opts.resume = &checkpoint.value();
  const EvolutionResult replayed =
      EvolutionarySearch(f.objective, resume_opts);
  ExpectSameResult(full, replayed);
  std::remove(path.c_str());
}

TEST(SearchCheckpointDeathTest, ResumeWithMismatchedOptionsRefuses) {
  Fixture f(GenerateUniform(200, 6, 3), 4);
  const EvolutionaryOptions opts = BaseOptions();
  const EvolutionCheckpoint shell =
      MakeCheckpointShell(opts, f.grid, f.objective.expectation());
  EvolutionaryOptions changed = opts;
  changed.seed = opts.seed + 1;
  changed.resume = &shell;
  EXPECT_DEATH(EvolutionarySearch(f.objective, changed), "seed");
}

}  // namespace
}  // namespace hido
