// Grid-layer invariants over random datasets and parameter sweeps.

#include <tuple>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/generators/synthetic.h"
#include "grid/cube_counter.h"
#include "grid/sparsity.h"
#include "testing/count_oracle.h"

namespace hido {
namespace {

// (n, d, phi, missing_permille, seed)
using GridInstance = std::tuple<size_t, size_t, size_t, size_t, uint64_t>;

class GridProperty : public ::testing::TestWithParam<GridInstance> {
 protected:
  void SetUp() override {
    const auto [n, d, phi, missing_permille, seed] = GetParam();
    n_ = n;
    d_ = d;
    phi_ = phi;
    data_ = GenerateUniform(n, d, seed);
    if (missing_permille > 0) {
      Rng rng(seed + 1);
      for (size_t r = 0; r < data_.num_rows(); ++r) {
        for (size_t c = 0; c < data_.num_cols(); ++c) {
          if (rng.Bernoulli(static_cast<double>(missing_permille) / 1000.0)) {
            data_.SetMissing(r, c);
          }
        }
      }
    }
    GridModel::Options gopts;
    gopts.phi = phi;
    grid_ = GridModel::Build(data_, gopts);
  }

  size_t n_, d_, phi_;
  Dataset data_;
  GridModel grid_;
};

TEST_P(GridProperty, RangesPartitionPresentPoints) {
  for (size_t dim = 0; dim < d_; ++dim) {
    size_t total = 0;
    for (uint32_t cell = 0; cell < phi_; ++cell) {
      const PostingContainer& members = grid_.Container(dim, cell);
      EXPECT_EQ(members.cardinality(), members.ToIds().size());
      total += members.cardinality();
    }
    EXPECT_EQ(total, data_.PresentCount(dim));
  }
}

TEST_P(GridProperty, CellAssignmentsConsistent) {
  for (size_t dim = 0; dim < d_; ++dim) {
    for (size_t row = 0; row < n_; ++row) {
      const uint32_t cell = grid_.Cell(row, dim);
      if (data_.IsMissing(row, dim)) {
        EXPECT_EQ(cell, GridModel::kMissingCell);
      } else {
        ASSERT_LT(cell, phi_);
        EXPECT_TRUE(grid_.Container(dim, cell).Contains(row));
      }
    }
  }
}

TEST_P(GridProperty, CountingStrategiesAgreeOnRandomCubes) {
  CubeCounter bitset_counter(grid_, {CountingStrategy::kBitset});
  CubeCounter posting_counter(grid_, {CountingStrategy::kPostingList});
  Rng rng(99);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t k = 1 + rng.UniformIndex(std::min<size_t>(4, d_));
    std::vector<DimRange> conditions;
    for (size_t dim : rng.SampleWithoutReplacement(d_, k)) {
      conditions.push_back(
          {static_cast<uint32_t>(dim),
           static_cast<uint32_t>(rng.UniformIndex(phi_))});
    }
    const size_t expected = CountByScan(grid_, conditions);
    EXPECT_EQ(bitset_counter.Count(conditions), expected);
    EXPECT_EQ(posting_counter.Count(conditions), expected);
    EXPECT_EQ(posting_counter.CoveredPoints(conditions).size(), expected);
  }
}

TEST_P(GridProperty, SparsityTotalsAreCoherent) {
  // Sum of counts over all cells of any 2-dim pair equals the number of
  // rows present in both dims; per Equation 1 the count-weighted mean of
  // S(D) over a partition is bounded by the all-cells-at-expectation case.
  if (d_ < 2) return;
  CubeCounter counter(grid_);
  size_t both_present = 0;
  for (size_t row = 0; row < n_; ++row) {
    both_present +=
        (!data_.IsMissing(row, 0) && !data_.IsMissing(row, 1)) ? 1 : 0;
  }
  size_t total = 0;
  for (uint32_t c0 = 0; c0 < phi_; ++c0) {
    for (uint32_t c1 = 0; c1 < phi_; ++c1) {
      total += counter.Count({{0, c0}, {1, c1}});
    }
  }
  EXPECT_EQ(total, both_present);
}

INSTANTIATE_TEST_SUITE_P(
    RandomGrids, GridProperty,
    ::testing::Values(GridInstance{100, 3, 2, 0, 1},
                      GridInstance{500, 6, 5, 0, 2},
                      GridInstance{1000, 4, 10, 0, 3},
                      GridInstance{300, 8, 4, 50, 4},
                      GridInstance{200, 5, 7, 200, 5},
                      GridInstance{64, 2, 8, 0, 6}),
    [](const ::testing::TestParamInfo<GridInstance>& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_d" +
             std::to_string(std::get<1>(info.param)) + "_phi" +
             std::to_string(std::get<2>(info.param)) + "_miss" +
             std::to_string(std::get<3>(info.param)) + "_s" +
             std::to_string(std::get<4>(info.param));
    });

}  // namespace
}  // namespace hido
