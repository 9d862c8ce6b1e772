#include "grid/quantizer.h"

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "common/macros.h"

namespace hido {

namespace {

// An integer whose signed order is the IEEE total order of the double:
// the order of the values, except that -0.0 comes before +0.0.
int64_t TotalOrderKey(double value) {
  int64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits ^ static_cast<int64_t>(static_cast<uint64_t>(bits >> 63) >> 1);
}

// Inverse of TotalOrderKey (the map flips the same bits back).
double FromTotalOrderKey(int64_t key) {
  const int64_t bits =
      key ^ static_cast<int64_t>(static_cast<uint64_t>(key >> 63) >> 1);
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

// Moves the element of keys[lo, hi) that a full sort would put at each
// position of [first, last) (ascending, within [lo, hi)) to that position:
// nth_element at the middle position, then each side on its own.
void SelectPositions(std::vector<int64_t>& keys, size_t lo, size_t hi,
                     const size_t* first, const size_t* last) {
  if (first == last) return;
  const size_t* mid = first + (last - first) / 2;
  std::nth_element(keys.begin() + static_cast<ptrdiff_t>(lo),
                   keys.begin() + static_cast<ptrdiff_t>(*mid),
                   keys.begin() + static_cast<ptrdiff_t>(hi));
  SelectPositions(keys, lo, *mid, first, mid);
  SelectPositions(keys, *mid + 1, hi, mid + 1, last);
}

}  // namespace

Quantizer Quantizer::Fit(const Dataset& data, const Options& options) {
  HIDO_CHECK_MSG(options.num_ranges >= 2, "phi must be >= 2 (got %zu)",
                 options.num_ranges);
  HIDO_CHECK(data.num_rows() >= 1);

  std::vector<std::vector<double>> cuts(data.num_cols());
  std::vector<double> col_min(data.num_cols());
  std::vector<double> col_max(data.num_cols());
  for (size_t c = 0; c < data.num_cols(); ++c) {
    ColumnFit fit = FitColumn(data, c, options);
    cuts[c] = std::move(fit.cuts);
    col_min[c] = fit.min;
    col_max[c] = fit.max;
  }
  return FromCuts(options, std::move(cuts), std::move(col_min),
                  std::move(col_max));
}

Quantizer::ColumnFit Quantizer::FitColumn(const Dataset& data, size_t col,
                                          const Options& options) {
  HIDO_CHECK_MSG(options.num_ranges >= 2, "phi must be >= 2 (got %zu)",
                 options.num_ranges);
  const std::vector<double>& values = data.Column(col);
  std::vector<int64_t> keys;
  keys.reserve(data.num_rows());
  for (size_t r = 0; r < data.num_rows(); ++r) {
    if (!data.IsMissing(r, col)) keys.push_back(TotalOrderKey(values[r]));
  }
  HIDO_CHECK_MSG(!keys.empty(), "column %zu has no present values", col);

  // The sorted positions the cuts read: min, max, and for equi-depth the
  // two neighbours QuantileSorted interpolates between for each i / phi.
  const size_t n = keys.size();
  const size_t phi = options.num_ranges;
  std::vector<size_t> positions{0, n - 1};
  if (options.mode == BinningMode::kEquiDepth) {
    for (size_t i = 1; i < phi; ++i) {
      const double q = static_cast<double>(i) / static_cast<double>(phi);
      const auto lo = static_cast<size_t>(q * static_cast<double>(n - 1));
      positions.push_back(lo);
      if (lo + 1 < n) positions.push_back(lo + 1);
    }
  }
  std::sort(positions.begin(), positions.end());
  positions.erase(std::unique(positions.begin(), positions.end()),
                  positions.end());
  SelectPositions(keys, 0, n, positions.data(),
                  positions.data() + positions.size());
  const auto sorted = [&keys](size_t p) { return FromTotalOrderKey(keys[p]); };

  ColumnFit fit;
  fit.min = sorted(0);
  fit.max = sorted(n - 1);
  std::vector<double>& cuts = fit.cuts;
  cuts.reserve(phi - 1);
  for (size_t i = 1; i < phi; ++i) {
    if (options.mode == BinningMode::kEquiWidth) {
      cuts.push_back(fit.min + (fit.max - fit.min) * static_cast<double>(i) /
                                   static_cast<double>(phi));
      continue;
    }
    // QuantileSorted(sorted values, i / phi), term for term.
    const double q = static_cast<double>(i) / static_cast<double>(phi);
    const double pos = q * static_cast<double>(n - 1);
    const auto lo = static_cast<size_t>(pos);
    if (lo + 1 >= n) {
      cuts.push_back(sorted(n - 1));
      continue;
    }
    const double frac = pos - static_cast<double>(lo);
    cuts.push_back(sorted(lo) * (1.0 - frac) + sorted(lo + 1) * frac);
  }
  // Breakpoints are non-decreasing by construction; enforce exactly so
  // CellOf's binary search is well-defined under floating-point noise.
  for (size_t i = 1; i < cuts.size(); ++i) {
    if (cuts[i] < cuts[i - 1]) cuts[i] = cuts[i - 1];
  }
  return fit;
}

uint32_t Quantizer::CountCutsAtMost(const std::vector<double>& cuts,
                                    double value) {
  // upper_bound without data-dependent branches: the answer stays in
  // [base, base + n] while n halves.
  const double* base = cuts.data();
  size_t n = cuts.size();
  while (n > 1) {
    const size_t half = n / 2;
    base = value < base[half] ? base : base + half;
    n -= half;
  }
  const size_t below = static_cast<size_t>(base - cuts.data());
  return static_cast<uint32_t>(below + (n == 1 && !(value < *base) ? 1 : 0));
}

Quantizer Quantizer::FromCuts(const Options& options,
                              std::vector<std::vector<double>> cuts,
                              std::vector<double> col_min,
                              std::vector<double> col_max) {
  HIDO_CHECK(options.num_ranges >= 2);
  HIDO_CHECK(cuts.size() == col_min.size() &&
             cuts.size() == col_max.size());
  for (const std::vector<double>& column_cuts : cuts) {
    HIDO_CHECK_MSG(column_cuts.size() == options.num_ranges - 1,
                   "expected %zu cuts per column, got %zu",
                   options.num_ranges - 1, column_cuts.size());
    for (size_t i = 1; i < column_cuts.size(); ++i) {
      HIDO_CHECK_MSG(column_cuts[i - 1] <= column_cuts[i],
                     "cuts must be non-decreasing");
    }
  }
  Quantizer q;
  q.num_ranges_ = options.num_ranges;
  q.mode_ = options.mode;
  q.cuts_ = std::move(cuts);
  q.col_min_ = std::move(col_min);
  q.col_max_ = std::move(col_max);
  return q;
}

uint32_t Quantizer::CellOf(size_t col, double value) const {
  HIDO_CHECK(col < cuts_.size());
  // Cell = number of breakpoints <= value; ties go to the higher cell so a
  // breakpoint value is the *inclusive lower* bound of its cell.
  const uint32_t cell = CountCutsAtMost(cuts_[col], value);
  return std::min(cell, static_cast<uint32_t>(num_ranges_ - 1));
}

std::pair<double, double> Quantizer::CellBounds(size_t col,
                                                uint32_t cell) const {
  HIDO_CHECK(col < cuts_.size());
  HIDO_CHECK(cell < num_ranges_);
  const std::vector<double>& cuts = cuts_[col];
  const double lo = (cell == 0) ? col_min_[col] : cuts[cell - 1];
  const double hi =
      (cell + 1 == num_ranges_) ? col_max_[col] : cuts[cell];
  return {lo, hi};
}

const std::vector<double>& Quantizer::Cuts(size_t col) const {
  HIDO_CHECK(col < cuts_.size());
  return cuts_[col];
}

}  // namespace hido
