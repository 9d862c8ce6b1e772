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
#include "grid/quantizer.h"
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

// Column `dim`'s present values, sorted under TotalLess.
std::vector<double> SortedPresent(const Dataset& data, size_t dim) {
  std::vector<double> sorted;
  for (size_t row = 0; row < data.num_rows(); ++row) {
    if (!data.IsMissing(row, dim)) sorted.push_back(data.Get(row, dim));
  }
  std::sort(sorted.begin(), sorted.end(), TotalLess);
  return sorted;
}

// The cuts, min and max a column with these sorted values should get.
Quantizer::ColumnFit ReferenceFit(const std::vector<double>& sorted,
                                  const Quantizer::Options& options) {
  const size_t phi = options.num_ranges;
  Quantizer::ColumnFit fit;
  fit.min = sorted.front();
  fit.max = sorted.back();
  for (size_t i = 1; i < phi; ++i) {
    fit.cuts.push_back(
        options.mode == BinningMode::kEquiDepth
            ? QuantileSorted(sorted, static_cast<double>(i) /
                                         static_cast<double>(phi))
            : fit.min + (fit.max - fit.min) * static_cast<double>(i) /
                            static_cast<double>(phi));
  }
  for (size_t i = 1; i < fit.cuts.size(); ++i) {
    if (fit.cuts[i] < fit.cuts[i - 1]) fit.cuts[i] = fit.cuts[i - 1];
  }
  return fit;
}

ReferenceGrid BuildReference(const Dataset& data,
                             const GridModel::Options& options) {
  const size_t phi = options.phi;
  ReferenceGrid ref;
  for (size_t dim = 0; dim < data.num_cols(); ++dim) {
    Quantizer::ColumnFit fit =
        ReferenceFit(SortedPresent(data, dim), {phi, options.mode});
    const std::vector<double>& cuts = fit.cuts;
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
    ref.cuts.push_back(std::move(fit.cuts));
    ref.min.push_back(fit.min);
    ref.max.push_back(fit.max);
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

// One column of `n` values of a kind that drives the radix selection down
// a path of its own: spread or tied keys, special values, keys that
// differ only in their last bits (so the selection recurses to its last
// digit), many binades, arbitrary non-NaN bit patterns.
std::vector<double> SweepColumn(size_t kind, size_t n, Rng& rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();
  const double kSpecials[] = {0.0,  -0.0,  kInf,        -kInf,       kTiny,
                              -kTiny, kMax, -kMax, 1e-310, -2.5e-315, 1.0};
  // Runs one ulp apart: a start value's bits plus up to `span` ulps.
  const double start = rng.UniformDouble(-4.0, 4.0);
  const size_t span = size_t{1} << rng.UniformIndex(14);
  std::vector<double> column(n);
  for (double& value : column) {
    switch (kind) {
      case 0:  // uniform
        value = rng.UniformDouble(-1000.0, 1000.0);
        break;
      case 1:  // heavy ties, zeros of either sign among them
        value = static_cast<double>(rng.UniformInt(-2, 2));
        if (value == 0.0 && rng.Bernoulli(0.5)) value = -0.0;
        break;
      case 2:  // specials among ordinary values
        value = rng.Bernoulli(0.7) ? kSpecials[rng.UniformIndex(11)]
                                   : rng.UniformDouble(-1.0, 1.0);
        break;
      case 3: {  // one ulp apart
        uint64_t bits = 0;
        std::memcpy(&bits, &start, sizeof(bits));
        bits += rng.UniformIndex(span);
        std::memcpy(&value, &bits, sizeof(value));
        break;
      }
      case 4:  // about 200 binades, either sign
        value = std::ldexp(rng.UniformDouble(1.0, 2.0),
                           static_cast<int>(rng.UniformInt(-100, 100))) *
                (rng.Bernoulli(0.5) ? 1.0 : -1.0);
        break;
      default:  // any bit pattern but a NaN
        do {
          const uint64_t bits = rng.Next64();
          std::memcpy(&value, &bits, sizeof(value));
        } while (std::isnan(value));
        break;
    }
  }
  return column;
}

// Quantizer::FitColumn's cuts, min and max equal bitwise what a full sort
// under TotalLess gives, over seeded columns of every kind above, of every
// size from 1 to 8, of random sizes up to 5000 and of over 100k rows, a
// quarter of them with missing cells, at each phi in both binning modes.
TEST(GridBuildOracle, RadixSelectionMatchesSortSweep) {
  constexpr size_t kKinds = 6;
  Rng rng(27);
  std::vector<size_t> sizes;
  for (size_t n = 1; n <= 8; ++n) sizes.insert(sizes.end(), 3, n);
  for (size_t i = 0; i < 12; ++i) {
    sizes.push_back(9 + static_cast<size_t>(std::exp(
                            rng.UniformDouble(0.0, std::log(5000.0)))));
  }
  size_t fits = 0;
  size_t failures = 0;
  const auto check = [&](size_t kind, size_t n) {
    std::vector<std::vector<double>> columns;
    columns.push_back(SweepColumn(kind, n, rng));
    Dataset data = Dataset::FromColumns(n, std::move(columns));
    if (rng.Bernoulli(0.25)) {
      const double p = rng.UniformDouble(0.05, 0.6);
      for (size_t row = 1; row < n; ++row) {
        if (rng.Bernoulli(p)) data.SetMissing(row, 0);
      }
    }
    const std::vector<double> sorted = SortedPresent(data, 0);
    for (const size_t phi : {2, 3, 10, 37, 256}) {
      for (const BinningMode mode :
           {BinningMode::kEquiDepth, BinningMode::kEquiWidth}) {
        const Quantizer::Options options{phi, mode};
        const Quantizer::ColumnFit got =
            Quantizer::FitColumn(data, 0, options);
        const Quantizer::ColumnFit want = ReferenceFit(sorted, options);
        ++fits;
        bool same = SameBits(got.min, want.min) &&
                    SameBits(got.max, want.max) &&
                    got.cuts.size() == want.cuts.size();
        for (size_t i = 0; same && i < got.cuts.size(); ++i) {
          same = SameBits(got.cuts[i], want.cuts[i]);
        }
        if (!same && ++failures <= 5) {
          ADD_FAILURE() << "kind " << kind << ", n " << n << " ("
                        << sorted.size() << " present), phi " << phi
                        << (mode == BinningMode::kEquiDepth ? " equi-depth"
                                                            : " equi-width");
        }
      }
    }
  };
  for (size_t kind = 0; kind < kKinds; ++kind) {
    for (const size_t n : sizes) check(kind, n);
  }
  for (const size_t kind : {0, 3, 4, 5}) check(kind, 100000 + kind);
  EXPECT_EQ(failures, 0u) << "of " << fits << " fits";
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
