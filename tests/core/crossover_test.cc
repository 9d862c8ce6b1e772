#include "core/genetic/crossover.h"

#include <cmath>
#include <set>
#include <utility>

#include <gtest/gtest.h>

#include "data/generators/synthetic.h"

namespace hido {
namespace {

// The operators write the children over the parents; these keep the
// parents and return the children.
std::pair<Projection, Projection> TwoPointChildren(const Projection& a,
                                                   const Projection& b,
                                                   Rng& rng) {
  std::pair<Projection, Projection> children{a, b};
  TwoPointCrossover(children.first, children.second, rng);
  return children;
}

std::pair<Projection, Projection> OptimizedChildren(
    const Projection& a, const Projection& b, size_t k,
    SparsityObjective& objective) {
  std::pair<Projection, Projection> children{a, b};
  OptimizedCrossover(children.first, children.second, k, objective);
  return children;
}

struct Fixture {
  Fixture(size_t n = 400, size_t d = 8, size_t phi = 4, uint64_t seed = 1)
      : grid(GridModel::Build(GenerateUniform(n, d, seed),
                              [&] {
                                GridModel::Options o;
                                o.phi = phi;
                                return o;
                              }())),
        objective(grid) {}
  GridModel grid;
  SparsityObjective objective;
};

TEST(TwoPointCrossoverTest, ChildrenExchangeSegments) {
  Projection a(4);
  a.Specify(0, 1);
  a.Specify(1, 2);
  Projection b(4);
  b.Specify(2, 3);
  b.Specify(3, 0);
  Rng rng(1);
  const auto [c1, c2] = TwoPointChildren(a, b, rng);
  // Every position of c1 comes from a (left of cut) or b (right of cut);
  // jointly the children hold exactly the parents' material.
  for (size_t pos = 0; pos < 4; ++pos) {
    const bool a_spec = a.IsSpecified(pos);
    const bool b_spec = b.IsSpecified(pos);
    EXPECT_EQ(c1.IsSpecified(pos) || c2.IsSpecified(pos), a_spec || b_spec);
    EXPECT_EQ(c1.IsSpecified(pos) && c2.IsSpecified(pos), a_spec && b_spec);
  }
  EXPECT_EQ(c1.Dimensionality() + c2.Dimensionality(), 4u);
}

TEST(TwoPointCrossoverTest, CanProduceInfeasibleDimensionality) {
  // The paper's example: crossing 3*2*1 and 1*33* after position 4 yields a
  // 2-dimensional and a 4-dimensional child.
  Projection a(5);
  a.Specify(0, 2);
  a.Specify(2, 1);
  a.Specify(4, 0);
  Projection b(5);
  b.Specify(0, 0);
  b.Specify(2, 2);
  b.Specify(3, 2);
  Rng rng(2);
  bool saw_infeasible = false;
  for (int trial = 0; trial < 100; ++trial) {
    const auto [c1, c2] = TwoPointChildren(a, b, rng);
    if (c1.Dimensionality() != 3 || c2.Dimensionality() != 3) {
      saw_infeasible = true;
    }
  }
  EXPECT_TRUE(saw_infeasible);
}

TEST(OptimizedCrossoverTest, BothChildrenAlwaysKDimensional) {
  Fixture f;
  Rng rng(3);
  for (int trial = 0; trial < 60; ++trial) {
    const size_t k = 2 + rng.UniformIndex(3);
    const Projection a = Projection::Random(8, k, 4, rng);
    const Projection b = Projection::Random(8, k, 4, rng);
    const auto [s, sp] = OptimizedChildren(a, b, k, f.objective);
    EXPECT_EQ(s.Dimensionality(), k) << "trial " << trial;
    EXPECT_EQ(sp.Dimensionality(), k) << "trial " << trial;
  }
}

TEST(OptimizedCrossoverTest, ChildrenOnlyUseParentMaterial) {
  Fixture f;
  Rng rng(4);
  for (int trial = 0; trial < 40; ++trial) {
    const Projection a = Projection::Random(8, 3, 4, rng);
    const Projection b = Projection::Random(8, 3, 4, rng);
    const auto [s, sp] = OptimizedChildren(a, b, 3, f.objective);
    for (const Projection* child : {&s, &sp}) {
      for (size_t pos = 0; pos < 8; ++pos) {
        if (!child->IsSpecified(pos)) continue;
        const uint32_t cell = child->CellAt(pos);
        const bool from_a = a.IsSpecified(pos) && a.CellAt(pos) == cell;
        const bool from_b = b.IsSpecified(pos) && b.CellAt(pos) == cell;
        EXPECT_TRUE(from_a || from_b)
            << "pos " << pos << " cell " << cell << " trial " << trial;
      }
    }
  }
}

TEST(OptimizedCrossoverTest, ComplementaryDerivation) {
  // At every position, the two children derive from opposite parents.
  Fixture f;
  Rng rng(5);
  for (int trial = 0; trial < 40; ++trial) {
    const Projection a = Projection::Random(8, 3, 4, rng);
    const Projection b = Projection::Random(8, 3, 4, rng);
    const auto [s, sp] = OptimizedChildren(a, b, 3, f.objective);
    for (size_t pos = 0; pos < 8; ++pos) {
      const bool a_spec = a.IsSpecified(pos);
      const bool b_spec = b.IsSpecified(pos);
      if (!a_spec && !b_spec) {
        // Type I: both children have *.
        EXPECT_FALSE(s.IsSpecified(pos));
        EXPECT_FALSE(sp.IsSpecified(pos));
      } else if (a_spec != b_spec) {
        // Type III: exactly one child holds the value.
        EXPECT_NE(s.IsSpecified(pos), sp.IsSpecified(pos)) << pos;
      } else if (a.CellAt(pos) != b.CellAt(pos)) {
        // Disagreeing Type II: children take opposite parents.
        ASSERT_TRUE(s.IsSpecified(pos) && sp.IsSpecified(pos));
        const std::set<uint32_t> got = {s.CellAt(pos), sp.CellAt(pos)};
        const std::set<uint32_t> want = {a.CellAt(pos), b.CellAt(pos)};
        EXPECT_EQ(got, want) << pos;
      }
    }
  }
}

TEST(OptimizedCrossoverTest, IdenticalParentsReproduceThemselves) {
  Fixture f;
  Rng rng(6);
  const Projection a = Projection::Random(8, 3, 4, rng);
  const auto [s, sp] = OptimizedChildren(a, a, 3, f.objective);
  EXPECT_EQ(s, a);
  EXPECT_EQ(sp, a);
}

TEST(OptimizedCrossoverTest, FirstChildAtLeastAsGoodAsTypeIIChoices) {
  // With disjoint dimension sets (k' = 0), the first child is the greedy
  // pick over all 2k Type III candidates; its sparsity should be <= the
  // sparsity of either parent's own dimension set extension... at minimum
  // it must be one of the valid k-subsets of the union.
  Fixture f;
  Projection a(8);
  a.Specify(0, 1);
  a.Specify(1, 2);
  Projection b(8);
  b.Specify(2, 0);
  b.Specify(3, 3);
  const auto [s, sp] = OptimizedChildren(a, b, 2, f.objective);
  EXPECT_EQ(s.Dimensionality(), 2u);
  EXPECT_EQ(sp.Dimensionality(), 2u);
  // The union of the children's conditions equals the union of parents'.
  std::set<std::pair<size_t, uint32_t>> child_material;
  for (const Projection* child : {&s, &sp}) {
    for (const DimRange& c : child->Conditions()) {
      child_material.insert({c.dim, c.cell});
    }
  }
  EXPECT_EQ(child_material.size(), 4u);
}

TEST(OptimizedCrossoverTest, GreedyPicksSparserExtension) {
  // Construct a case where one Type III candidate leads to an empty cube
  // (sparser) and another to a full cube; greedy must take the empty one
  // for the first child.
  Dataset ds(3);
  // Points concentrated so that cell (0,0)+(1,0) is populated but
  // (0,0)+(2,1) is empty.
  for (int i = 0; i < 50; ++i) ds.AppendRow({0.1, 0.1, 0.1});
  for (int i = 0; i < 50; ++i) ds.AppendRow({0.9, 0.9, 0.9});
  GridModel::Options gopts;
  gopts.phi = 2;
  gopts.mode = BinningMode::kEquiWidth;  // deterministic cells under ties
  const GridModel grid = GridModel::Build(ds, gopts);
  SparsityObjective objective(grid);

  Projection a(3);
  a.Specify(0, 0);
  a.Specify(1, 0);  // (low, low): 50 points
  Projection b(3);
  b.Specify(0, 0);
  b.Specify(2, 1);  // (low, high): empty
  // Type II: dim 0 agrees. Type III: dim 1 (from a), dim 2 (from b).
  const auto [s, sp] = OptimizedChildren(a, b, 2, objective);
  // The sparser child is (0=low, 2=high), count 0.
  EXPECT_EQ(objective.Evaluate(s).count, 0u);
  EXPECT_EQ(s.CellAt(0), 0u);
  ASSERT_TRUE(s.IsSpecified(2));
  EXPECT_EQ(s.CellAt(2), 1u);
  // The complement takes dim 1 instead.
  ASSERT_TRUE(sp.IsSpecified(1));
  EXPECT_FALSE(sp.IsSpecified(2));
}

TEST(OptimizedCrossoverTest, TypeIIEnumerationFindsBestCombination) {
  // Parents disagree on both shared dims; of the four combinations one is
  // empty. The first child must select it.
  Dataset ds(2);
  for (int i = 0; i < 30; ++i) ds.AppendRow({0.1, 0.1});  // (0,0)
  for (int i = 0; i < 30; ++i) ds.AppendRow({0.9, 0.9});  // (1,1)
  for (int i = 0; i < 30; ++i) ds.AppendRow({0.1, 0.9});  // (0,1)
  // (1,0) left empty.
  GridModel::Options gopts;
  gopts.phi = 2;
  gopts.mode = BinningMode::kEquiWidth;  // deterministic cells under ties
  const GridModel grid = GridModel::Build(ds, gopts);
  SparsityObjective objective(grid);

  Projection a(2);
  a.Specify(0, 0);
  a.Specify(1, 0);
  Projection b(2);
  b.Specify(0, 1);
  b.Specify(1, 1);
  const auto [s, sp] = OptimizedChildren(a, b, 2, objective);
  EXPECT_EQ(s.CellAt(0), 1u);
  EXPECT_EQ(s.CellAt(1), 0u);  // the empty combination
  // Complement takes the opposite parent at each position: (0, 1).
  EXPECT_EQ(sp.CellAt(0), 0u);
  EXPECT_EQ(sp.CellAt(1), 1u);
}

TEST(CrossoverPopulationTest, OptimizedKeepsPopulationFeasible) {
  Fixture f;
  Rng rng(7);
  std::vector<Individual> population(10);
  for (Individual& ind : population) {
    ind.projection = Projection::Random(8, 3, 4, rng);
    EvaluateIndividual(ind, 3, f.objective);
  }
  CrossoverPopulation(population, CrossoverKind::kOptimized, 3, f.objective,
                      rng);
  for (const Individual& ind : population) {
    EXPECT_TRUE(ind.feasible);
    EXPECT_EQ(ind.projection.Dimensionality(), 3u);
  }
}

TEST(CrossoverPopulationTest, OddPopulationLastUntouchedCount) {
  Fixture f;
  Rng rng(8);
  std::vector<Individual> population(7);
  for (Individual& ind : population) {
    ind.projection = Projection::Random(8, 2, 4, rng);
    EvaluateIndividual(ind, 2, f.objective);
  }
  CrossoverPopulation(population, CrossoverKind::kOptimized, 2, f.objective,
                      rng);
  EXPECT_EQ(population.size(), 7u);
}

TEST(CrossoverPopulationTest, TwoPointEvaluatesInfeasibleAsInfinite) {
  Fixture f;
  Rng rng(9);
  std::vector<Individual> population(20);
  for (Individual& ind : population) {
    ind.projection = Projection::Random(8, 3, 4, rng);
    EvaluateIndividual(ind, 3, f.objective);
  }
  CrossoverPopulation(population, CrossoverKind::kTwoPoint, 3, f.objective,
                      rng);
  for (const Individual& ind : population) {
    if (ind.projection.Dimensionality() != 3) {
      EXPECT_FALSE(ind.feasible);
      EXPECT_TRUE(std::isinf(ind.sparsity));
    } else {
      EXPECT_TRUE(ind.feasible);
    }
  }
}

TEST(OptimizedCrossoverDeathTest, WrongDimensionalityParents) {
  Fixture f;
  Rng rng(10);
  const Projection a = Projection::Random(8, 2, 4, rng);
  const Projection b = Projection::Random(8, 3, 4, rng);
  EXPECT_DEATH(OptimizedChildren(a, b, 3, f.objective), "k-dimensional");
}

}  // namespace
}  // namespace hido
