#include "core/genetic/mutation.h"

#include <set>

#include <gtest/gtest.h>

#include "data/generators/synthetic.h"

namespace hido {
namespace {

TEST(MutationTest, PreservesDimensionality) {
  Rng rng(1);
  MutationOptions opts;
  opts.p1 = 1.0;
  opts.p2 = 1.0;
  for (int trial = 0; trial < 100; ++trial) {
    Projection p = Projection::Random(10, 3, 5, rng);
    MutateProjection(p, 5, opts, rng);
    EXPECT_EQ(p.Dimensionality(), 3u);
    for (const DimRange& c : p.Conditions()) EXPECT_LT(c.cell, 5u);
  }
}

TEST(MutationTest, ZeroProbabilityNeverMutates) {
  Rng rng(2);
  MutationOptions opts;
  opts.p1 = 0.0;
  opts.p2 = 0.0;
  Projection p = Projection::Random(10, 3, 5, rng);
  const Projection before = p;
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(MutateProjection(p, 5, opts, rng));
  }
  EXPECT_EQ(p, before);
}

TEST(MutationTest, TypeOneMovesDimensions) {
  // With p1 = 1 and p2 = 0, the dimension set must change every time
  // (one * becomes specified and one specified becomes *).
  Rng rng(3);
  MutationOptions opts;
  opts.p1 = 1.0;
  opts.p2 = 0.0;
  for (int trial = 0; trial < 50; ++trial) {
    Projection p = Projection::Random(10, 3, 5, rng);
    const std::vector<size_t> before = p.SpecifiedDims();
    EXPECT_TRUE(MutateProjection(p, 5, opts, rng));
    EXPECT_NE(p.SpecifiedDims(), before);
    EXPECT_EQ(p.Dimensionality(), 3u);
  }
}

TEST(MutationTest, TypeTwoKeepsDimensionSet) {
  Rng rng(4);
  MutationOptions opts;
  opts.p1 = 0.0;
  opts.p2 = 1.0;
  for (int trial = 0; trial < 50; ++trial) {
    Projection p = Projection::Random(10, 3, 5, rng);
    const std::vector<size_t> before = p.SpecifiedDims();
    MutateProjection(p, 5, opts, rng);
    EXPECT_EQ(p.SpecifiedDims(), before);
  }
}

TEST(MutationTest, FullySpecifiedStringSkipsTypeOne) {
  // k == d: no * positions, Type I cannot apply.
  Rng rng(5);
  MutationOptions opts;
  opts.p1 = 1.0;
  opts.p2 = 0.0;
  Projection p = Projection::Random(4, 4, 5, rng);
  const Projection before = p;
  EXPECT_FALSE(MutateProjection(p, 5, opts, rng));
  EXPECT_EQ(p, before);
}

TEST(MutationTest, EventuallyExploresAllDimensions) {
  Rng rng(6);
  MutationOptions opts;
  opts.p1 = 0.5;
  opts.p2 = 0.5;
  Projection p = Projection::Random(12, 3, 5, rng);
  std::set<size_t> dims_seen;
  for (int i = 0; i < 2000; ++i) {
    MutateProjection(p, 5, opts, rng);
    for (size_t d : p.SpecifiedDims()) dims_seen.insert(d);
  }
  EXPECT_EQ(dims_seen.size(), 12u);
}

TEST(MutatePopulationTest, ReevaluatesChangedIndividuals) {
  GridModel::Options gopts;
  gopts.phi = 4;
  const GridModel grid =
      GridModel::Build(GenerateUniform(300, 6, 7), gopts);
  SparsityObjective objective(grid);

  Rng rng(8);
  std::vector<Individual> population(10);
  for (Individual& ind : population) {
    ind.projection = Projection::Random(6, 2, 4, rng);
    EvaluateIndividual(ind, 2, objective);
  }
  MutationOptions opts;
  opts.p1 = 1.0;
  opts.p2 = 1.0;
  MutatePopulation(population, 2, opts, objective, rng);
  for (const Individual& ind : population) {
    EXPECT_TRUE(ind.feasible);
    // Fitness matches a fresh evaluation of the mutated string.
    const CubeEvaluation eval = objective.Evaluate(ind.projection);
    EXPECT_DOUBLE_EQ(ind.sparsity, eval.sparsity);
    EXPECT_EQ(ind.count, eval.count);
  }
}

}  // namespace
}  // namespace hido
