// Property sweep for the optimized crossover across (d, k, phi): the
// operator's contracts must hold for every shape, not just the defaults.

#include <memory>
#include <set>
#include <tuple>
#include <utility>

#include <gtest/gtest.h>

#include "core/genetic/crossover.h"
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

// (d, k, phi)
using Shape = std::tuple<size_t, size_t, size_t>;

class OptimizedCrossoverProperty : public ::testing::TestWithParam<Shape> {
 protected:
  void SetUp() override {
    const auto [d, k, phi] = GetParam();
    d_ = d;
    k_ = k;
    phi_ = phi;
    GridModel::Options gopts;
    gopts.phi = phi;
    grid_ = GridModel::Build(GenerateUniform(300, d, 11), gopts);
    objective_ = std::make_unique<SparsityObjective>(grid_);
  }

  size_t d_, k_, phi_;
  GridModel grid_;
  std::unique_ptr<SparsityObjective> objective_;
};

TEST_P(OptimizedCrossoverProperty, ContractsHoldOnRandomParents) {
  Rng rng(1000 + d_ * 13 + k_ * 7 + phi_);
  for (int trial = 0; trial < 25; ++trial) {
    const Projection a = Projection::Random(d_, k_, phi_, rng);
    const Projection b = Projection::Random(d_, k_, phi_, rng);
    const auto [s, sp] = OptimizedChildren(a, b, k_, *objective_);

    // 1. Dimensionality preservation.
    ASSERT_EQ(s.Dimensionality(), k_);
    ASSERT_EQ(sp.Dimensionality(), k_);

    for (size_t pos = 0; pos < d_; ++pos) {
      const bool a_spec = a.IsSpecified(pos);
      const bool b_spec = b.IsSpecified(pos);
      // 2. Children use only parent material.
      for (const Projection* child : {&s, &sp}) {
        if (!child->IsSpecified(pos)) continue;
        const uint32_t cell = child->CellAt(pos);
        EXPECT_TRUE((a_spec && a.CellAt(pos) == cell) ||
                    (b_spec && b.CellAt(pos) == cell));
      }
      // 3. Complementary derivation (Figure 5's definition).
      if (!a_spec && !b_spec) {
        EXPECT_FALSE(s.IsSpecified(pos) || sp.IsSpecified(pos));
      } else if (a_spec != b_spec) {
        EXPECT_NE(s.IsSpecified(pos), sp.IsSpecified(pos));
      } else if (a.CellAt(pos) != b.CellAt(pos)) {
        const std::set<uint32_t> got = {s.CellAt(pos), sp.CellAt(pos)};
        const std::set<uint32_t> want = {a.CellAt(pos), b.CellAt(pos)};
        EXPECT_EQ(got, want);
      } else {
        EXPECT_EQ(s.CellAt(pos), a.CellAt(pos));
        EXPECT_EQ(sp.CellAt(pos), a.CellAt(pos));
      }
    }
  }
}

TEST_P(OptimizedCrossoverProperty, DeterministicGivenParents) {
  Rng rng(2000 + d_);
  const Projection a = Projection::Random(d_, k_, phi_, rng);
  const Projection b = Projection::Random(d_, k_, phi_, rng);
  const auto [s1, sp1] = OptimizedChildren(a, b, k_, *objective_);
  const auto [s2, sp2] = OptimizedChildren(a, b, k_, *objective_);
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(sp1, sp2);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, OptimizedCrossoverProperty,
    ::testing::Values(Shape{4, 2, 3}, Shape{8, 2, 5}, Shape{8, 4, 4},
                      Shape{8, 8, 3}, Shape{16, 3, 10}, Shape{24, 6, 4},
                      Shape{40, 2, 8}, Shape{40, 5, 5}),
    [](const ::testing::TestParamInfo<Shape>& info) {
      return "d" + std::to_string(std::get<0>(info.param)) + "_k" +
             std::to_string(std::get<1>(info.param)) + "_phi" +
             std::to_string(std::get<2>(info.param));
    });

class TwoPointCrossoverProperty : public ::testing::TestWithParam<Shape> {};

TEST_P(TwoPointCrossoverProperty, MaterialConservation) {
  const auto [d, k, phi] = GetParam();
  Rng rng(3000 + d);
  for (int trial = 0; trial < 40; ++trial) {
    const Projection a = Projection::Random(d, k, phi, rng);
    const Projection b = Projection::Random(d, k, phi, rng);
    const auto [c1, c2] = TwoPointChildren(a, b, rng);
    // Total dimensionality is conserved even when split infeasibly.
    EXPECT_EQ(c1.Dimensionality() + c2.Dimensionality(), 2 * k);
    // Positionwise the children are a permutation of the parents.
    for (size_t pos = 0; pos < d; ++pos) {
      std::multiset<int64_t> parents;
      std::multiset<int64_t> children;
      parents.insert(a.IsSpecified(pos) ? a.CellAt(pos) : -1);
      parents.insert(b.IsSpecified(pos) ? b.CellAt(pos) : -1);
      children.insert(c1.IsSpecified(pos) ? c1.CellAt(pos) : -1);
      children.insert(c2.IsSpecified(pos) ? c2.CellAt(pos) : -1);
      EXPECT_EQ(parents, children);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TwoPointCrossoverProperty,
    ::testing::Values(Shape{4, 2, 3}, Shape{10, 3, 5}, Shape{16, 8, 4},
                      Shape{32, 4, 10}),
    [](const ::testing::TestParamInfo<Shape>& info) {
      return "d" + std::to_string(std::get<0>(info.param)) + "_k" +
             std::to_string(std::get<1>(info.param)) + "_phi" +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace hido
