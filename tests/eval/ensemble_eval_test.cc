// Pins the configuration EXPERIMENTS.md documents for the ensemble claim:
// at a matched per-search budget, an ensemble of decorrelated members
// recovers at least as many planted outliers as one single GA run — and
// the comparison is deterministic, so the pinned numbers are reproducible
// from the CLI recipe.

#include "eval/ensemble_eval.h"

#include <cstdio>

#include <gtest/gtest.h>

namespace hido {
namespace eval {
namespace {

EnsembleEvalParams PinnedParams() {
  EnsembleEvalParams params;
  params.data.num_points = 600;
  params.data.num_dims = 24;
  params.data.num_groups = 4;
  params.data.num_outliers = 12;
  params.data.seed = 11;

  // One deliberately small search: a single GA restart with a short
  // generation budget, the regime where restart diversity is known to
  // matter (README's restart ablation). The ensemble runs E=4 of exactly
  // these searches with decorrelated seeds and max-combines them. phi
  // matches the generator's modes-per-group and target_dim its off-mode
  // subspace size, so the planted cells are findable by construction.
  params.detector.phi = 5;
  params.detector.target_dim = 2;
  params.detector.num_projections = 10;
  params.detector.evolution.population_size = 30;
  params.detector.evolution.max_generations = 12;
  params.detector.evolution.stagnation_generations = 0;
  params.detector.evolution.restarts = 1;
  params.detector.seed = 7;

  // Max-combine: members with decorrelated seeds *specialize* (each finds
  // a different subset of the planted cells), and max is the union-taking
  // aggregate — a row is as outlying as its most alarmed member. The
  // consensus mean would average a single-member find down below rows many
  // members weakly agree on.
  params.ensemble.num_members = 4;
  params.ensemble.combiner = ensemble::CombinerKind::kMax;
  return params;
}

TEST(EnsembleEvalTest, EnsembleRecallAtLeastSingleOnPinnedConfig) {
  const EnsembleEvalOutcome outcome =
      CompareEnsembleToSingle(PinnedParams());
  std::printf("single:   recall %.3f precision %.3f flagged %zu\n",
              outcome.single_run.recall, outcome.single_run.precision,
              outcome.single_run.flagged);
  std::printf("ensemble: recall %.3f precision %.3f flagged %zu\n",
              outcome.ensemble.recall, outcome.ensemble.precision,
              outcome.ensemble.flagged);
  EXPECT_GE(outcome.ensemble.recall, outcome.single_run.recall);
  EXPECT_GT(outcome.ensemble.recall, 0.0);
  EXPECT_LE(outcome.ensemble.recall, 1.0);
  EXPECT_GT(outcome.ensemble.flagged, 0u);
}

TEST(EnsembleEvalTest, ComparisonIsDeterministic) {
  const EnsembleEvalOutcome first = CompareEnsembleToSingle(PinnedParams());
  const EnsembleEvalOutcome second =
      CompareEnsembleToSingle(PinnedParams());
  EXPECT_EQ(first.single_run.recall, second.single_run.recall);
  EXPECT_EQ(first.single_run.precision, second.single_run.precision);
  EXPECT_EQ(first.ensemble.recall, second.ensemble.recall);
  EXPECT_EQ(first.ensemble.precision, second.ensemble.precision);
  EXPECT_EQ(first.ensemble.flagged, second.ensemble.flagged);
}

}  // namespace
}  // namespace eval
}  // namespace hido
