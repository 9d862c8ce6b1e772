// Grid-layer invariants over random datasets and parameter sweeps, and a
// differential check of GridModel::Build against a reference that sorts
// every column.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/run_control.h"
#include "common/stats.h"
#include "core/objective.h"
#include "data/generators/synthetic.h"
#include "grid/sparsity.h"
#include "obs/metrics.h"
#include "testing/count_oracle.h"

namespace hido {
namespace {

// The grid Build should produce, from a full sort of each column under
// the total order that puts -0.0 before +0.0.
struct ReferenceGrid {
  std::vector<std::vector<double>> cuts;
  std::vector<double> min;
  std::vector<double> max;
  std::vector<std::vector<uint32_t>> cells;  // [dim][row]
  std::vector<std::vector<std::vector<uint32_t>>> ids;  // [dim][cell]
};

bool TotalLess(double a, double b) {
  return a < b || (a == b && std::signbit(a) && !std::signbit(b));
}

ReferenceGrid BuildReference(const Dataset& data,
                             const GridModel::Options& options) {
  const size_t phi = options.phi;
  ReferenceGrid ref;
  for (size_t dim = 0; dim < data.num_cols(); ++dim) {
    std::vector<double> sorted;
    for (size_t row = 0; row < data.num_rows(); ++row) {
      if (!data.IsMissing(row, dim)) sorted.push_back(data.Get(row, dim));
    }
    std::sort(sorted.begin(), sorted.end(), TotalLess);
    const double lo = sorted.front();
    const double hi = sorted.back();
    std::vector<double> cuts;
    for (size_t i = 1; i < phi; ++i) {
      cuts.push_back(options.mode == BinningMode::kEquiDepth
                         ? QuantileSorted(sorted, static_cast<double>(i) /
                                                      static_cast<double>(phi))
                         : lo + (hi - lo) * static_cast<double>(i) /
                                    static_cast<double>(phi));
    }
    for (size_t i = 1; i < cuts.size(); ++i) {
      if (cuts[i] < cuts[i - 1]) cuts[i] = cuts[i - 1];
    }
    std::vector<uint32_t> cells(data.num_rows());
    std::vector<std::vector<uint32_t>> ids(phi);
    for (size_t row = 0; row < data.num_rows(); ++row) {
      if (data.IsMissing(row, dim)) {
        cells[row] = GridModel::kMissingCell;
        continue;
      }
      cells[row] = static_cast<uint32_t>(
          std::upper_bound(cuts.begin(), cuts.end(), data.Get(row, dim)) -
          cuts.begin());
      ids[cells[row]].push_back(static_cast<uint32_t>(row));
    }
    ref.cuts.push_back(std::move(cuts));
    ref.min.push_back(lo);
    ref.max.push_back(hi);
    ref.cells.push_back(std::move(cells));
    ref.ids.push_back(std::move(ids));
  }
  return ref;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

uint64_t Counter(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name).Value();
}

// Builds `data` at 1 and 4 threads and checks each build against the
// reference: cuts and min/max bitwise, cells, range members and
// cardinalities, and the grid.* counters the build adds.
void ExpectBuildMatchesReference(const Dataset& data,
                                 const GridModel::Options& options) {
  const ReferenceGrid ref = BuildReference(data, options);
  const size_t n = data.num_rows();
  const size_t d = data.num_cols();
  const size_t phi = options.phi;
  for (const size_t threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const char* const kCounters[] = {"grid.builds", "grid.points_indexed",
                                     "grid.cells_indexed"};
    std::vector<uint64_t> before;
    for (const char* name : kCounters) before.push_back(Counter(name));
    const Result<GridModel> built =
        GridModel::Build(data, options, /*stop=*/nullptr, threads);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const uint64_t want[] = {1, n, n * d};
    for (size_t i = 0; i < std::size(kCounters); ++i) {
      EXPECT_EQ(Counter(kCounters[i]) - before[i], want[i]) << kCounters[i];
    }
    const GridModel& grid = built.value();
    ASSERT_EQ(grid.num_dims(), d);
    ASSERT_EQ(grid.num_points(), n);
    for (size_t dim = 0; dim < d; ++dim) {
      const Quantizer& q = grid.quantizer();
      const std::vector<double>& cuts = q.Cuts(dim);
      ASSERT_EQ(cuts.size(), ref.cuts[dim].size());
      for (size_t i = 0; i < cuts.size(); ++i) {
        EXPECT_TRUE(SameBits(cuts[i], ref.cuts[dim][i]))
            << "dim " << dim << " cut " << i << ": " << cuts[i] << " vs "
            << ref.cuts[dim][i];
      }
      EXPECT_TRUE(SameBits(q.CellBounds(dim, 0).first, ref.min[dim]));
      EXPECT_TRUE(SameBits(q.CellBounds(dim, static_cast<uint32_t>(phi - 1))
                               .second,
                           ref.max[dim]));
      for (size_t row = 0; row < n; ++row) {
        ASSERT_EQ(grid.Cell(row, dim), ref.cells[dim][row])
            << "row " << row << " dim " << dim;
      }
      for (uint32_t cell = 0; cell < phi; ++cell) {
        EXPECT_EQ(grid.RangeBits(dim, cell).ToIndices(), ref.ids[dim][cell]);
        EXPECT_EQ(grid.RangeCardinality(dim, cell), ref.ids[dim][cell].size());
      }
    }
  }
}

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
      const DynamicBitset& members = grid_.RangeBits(dim, cell);
      EXPECT_EQ(grid_.RangeCardinality(dim, cell), members.Count());
      total += members.Count();
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
        EXPECT_TRUE(grid_.RangeBits(dim, cell).Test(row));
      }
    }
  }
}

// The two ways a cube is answered, the objective's fused count and the
// grid's id list ANDed into a scratch bitmap, agree with the row scan.
TEST_P(GridProperty, CountingStrategiesAgreeOnRandomCubes) {
  SparsityObjective objective(grid_);
  Rng rng(99);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t k = 1 + rng.UniformIndex(std::min<size_t>(4, d_));
    std::vector<DimRange> conditions;
    std::vector<size_t> dims;
    rng.SampleWithoutReplacement(d_, k, &dims);
    for (size_t dim : dims) {
      conditions.push_back(
          {static_cast<uint32_t>(dim),
           static_cast<uint32_t>(rng.UniformIndex(phi_))});
    }
    const size_t expected = CountByScan(data_, grid_, conditions);
    EXPECT_EQ(objective.EvaluateConditions(conditions).count, expected);
    EXPECT_EQ(grid_.CoveredPoints(conditions).size(), expected);
  }
}

TEST_P(GridProperty, SparsityTotalsAreCoherent) {
  // Sum of counts over all cells of any 2-dim pair equals the number of
  // rows present in both dims; per Equation 1 the count-weighted mean of
  // S(D) over a partition is bounded by the all-cells-at-expectation case.
  if (d_ < 2) return;
  SparsityObjective objective(grid_);
  size_t both_present = 0;
  for (size_t row = 0; row < n_; ++row) {
    both_present +=
        (!data_.IsMissing(row, 0) && !data_.IsMissing(row, 1)) ? 1 : 0;
  }
  size_t total = 0;
  for (uint32_t c0 = 0; c0 < phi_; ++c0) {
    for (uint32_t c1 = 0; c1 < phi_; ++c1) {
      total += objective.EvaluateConditions({{0, c0}, {1, c1}}).count;
    }
  }
  EXPECT_EQ(total, both_present);
}

TEST_P(GridProperty, BuildMatchesSortingReference) {
  for (const BinningMode mode :
       {BinningMode::kEquiDepth, BinningMode::kEquiWidth}) {
    GridModel::Options gopts;
    gopts.phi = phi_;
    gopts.mode = mode;
    ExpectBuildMatchesReference(data_, gopts);
  }
}

// Columns whose order statistics are not all distinct: selection must
// land on the same values a sort does.
TEST(GridBuildOracle, TiesConstantAndMissingColumns) {
  Rng rng(3);
  const size_t n = 2000;
  Dataset data(4);
  std::vector<double> row(4);
  for (size_t r = 0; r < n; ++r) {
    row[0] = static_cast<double>(rng.UniformInt(0, 4));  // heavy ties
    row[1] = 7.5;                                         // constant
    row[2] = rng.Bernoulli(0.3) ? std::nan("") : rng.UniformDouble();
    row[3] = rng.Bernoulli(0.99) ? 1.0 : static_cast<double>(r);
    data.AppendRow(row);
  }
  for (const size_t phi : {2, 3, 10, 37}) {
    GridModel::Options gopts;
    gopts.phi = phi;
    ExpectBuildMatchesReference(data, gopts);
  }
}

TEST(GridBuildOracle, ColumnMixingSignedZeros) {
  Rng rng(5);
  Dataset data(2);
  for (size_t r = 0; r < 3000; ++r) {
    const double zero = rng.Bernoulli(0.5) ? -0.0 : 0.0;
    data.AppendRow({rng.Bernoulli(0.6) ? zero : rng.UniformDouble(-1, 1),
                    rng.Bernoulli(0.5) ? zero : -1.0});
  }
  for (const size_t phi : {2, 4, 10}) {
    GridModel::Options gopts;
    gopts.phi = phi;
    ExpectBuildMatchesReference(data, gopts);
  }
}

TEST(GridBuildOracle, SingleRowAndPhiCap) {
  ExpectBuildMatchesReference(Dataset::FromRows({{3.0, -0.0}}),
                              GridModel::Options{});
  const Dataset data = GenerateUniform(700, 5, 9);
  for (const size_t phi : {size_t{8}, GridModel::kMaxPhi}) {
    GridModel::Options gopts;
    gopts.phi = phi;
    ExpectBuildMatchesReference(data, gopts);
  }
}

TEST(GridBuildOracle, StopTokenFiredMidBuildAbortsAtAnyWidth) {
  const Dataset data = GenerateUniform(20000, 12, 4);
  GridModel::Options gopts;
  gopts.phi = 6;
  for (const size_t threads : {1, 4}) {
    for (const uint64_t poll : {2, 5, 40}) {
      StopToken token;
      token.ArmFailpoint(poll);
      const Result<GridModel> r = GridModel::Build(data, gopts, &token, threads);
      ASSERT_FALSE(r.ok()) << "threads " << threads << " poll " << poll;
      EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
      EXPECT_EQ(token.cause(), StopCause::kFailpoint);
    }
  }
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
