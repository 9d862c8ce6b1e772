#include "grid/quantizer.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>

#include "common/macros.h"

namespace hido {

namespace {

// An unsigned integer whose order is the IEEE total order of the double:
// the order of the values, except that -0.0 comes before +0.0. A negative
// value has all its bits flipped, any other only its sign bit.
uint64_t TotalOrderKey(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits ^ ((0 - (bits >> 63)) | (uint64_t{1} << 63));
}

// Inverse of TotalOrderKey.
double FromTotalOrderKey(uint64_t key) {
  const uint64_t bits = key ^ (~(0 - (key >> 63)) | (uint64_t{1} << 63));
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

// Bits of one radix digit at most: 2^11 counters fit in L1.
constexpr int kDigitBits = 11;
// Keys few enough to sort rather than split by another digit.
constexpr size_t kSortKeys = 64;

// Visits the keys of an array, as SelectKeys visits a bucket's keys.
struct KeySpan {
  const uint64_t* keys;
  size_t count;

  template <typename Visit>
  void operator()(Visit&& visit) const {
    for (size_t i = 0; i < count; ++i) visit(keys[i]);
  }
};

// Sets out[i] to the key a full sort of the `n` keys `for_each_key` visits
// would put at position first[i] - offset, for the ascending positions
// [first, last). One radix digit, the highest bits below the common prefix
// of the keys' min and max, buckets the keys; the counts' running sums
// give each wanted position's bucket, and only the wanted buckets' keys
// are copied and selected from in turn.
template <typename ForEachKey>
void SelectKeys(const ForEachKey& for_each_key, size_t n, const size_t* first,
                const size_t* last, size_t offset, uint64_t* out) {
  if (n <= kSortKeys) {
    uint64_t sorted[kSortKeys];
    size_t count = 0;
    for_each_key([&](uint64_t key) { sorted[count++] = key; });
    std::sort(sorted, sorted + count);
    for (const size_t* p = first; p != last; ++p) {
      *out++ = sorted[*p - offset];
    }
    return;
  }
  uint64_t lo = std::numeric_limits<uint64_t>::max();
  uint64_t hi = 0;
  for_each_key([&](uint64_t key) {
    lo = std::min(lo, key);
    hi = std::max(hi, key);
  });
  if (lo == hi) {
    std::fill(out, out + (last - first), lo);
    return;
  }
  const int width = std::min(kDigitBits, static_cast<int>(std::bit_width(n)));
  const int shift =
      std::max(static_cast<int>(std::bit_width(lo ^ hi)) - width, 0);
  const uint64_t base = lo >> shift;
  const auto bucket_of = [shift, base](uint64_t key) {
    return static_cast<size_t>((key >> shift) - base);
  };
  const size_t buckets = bucket_of(hi) + 1;
  // start[b]: the sorted position, from `offset`, of bucket b's first key.
  std::vector<size_t> start(buckets + 1, 0);
  for_each_key([&](uint64_t key) { ++start[bucket_of(key) + 1]; });
  for (size_t b = 0; b < buckets; ++b) start[b + 1] += start[b];

  // The buckets holding a wanted position, ascending, with their positions.
  struct Wanted {
    size_t bucket;
    size_t begin;  // sorted position of its first key, from `offset`
    size_t count;  // its keys
    const size_t* first;
    const size_t* last;
  };
  std::vector<Wanted> wanted;
  size_t bucket = 0;
  for (const size_t* p = first; p != last;) {
    while (start[bucket + 1] <= *p - offset) ++bucket;
    const size_t* q = p;
    while (q != last && *q - offset < start[bucket + 1]) ++q;
    wanted.push_back({bucket, start[bucket],
                      start[bucket + 1] - start[bucket], p, q});
    p = q;
  }

  // Copies the wanted buckets' keys, each bucket's together: `start` now
  // holds where bucket b's next key goes, or kSkip for an unwanted one.
  constexpr size_t kSkip = std::numeric_limits<size_t>::max();
  std::fill(start.begin(), start.end(), kSkip);
  size_t copied = 0;
  for (const Wanted& w : wanted) {
    start[w.bucket] = copied;
    copied += w.count;
  }
  std::vector<uint64_t> keys(copied);
  for_each_key([&](uint64_t key) {
    size_t& next = start[bucket_of(key)];
    if (next != kSkip) keys[next++] = key;
  });
  copied = 0;
  for (const Wanted& w : wanted) {
    SelectKeys(KeySpan{keys.data() + copied, w.count}, w.count, w.first,
               w.last, offset + w.begin, out + (w.first - first));
    copied += w.count;
  }
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
  // The column's present values, keyed as they are read. A Dataset cell
  // holds NaN exactly when it is missing.
  const double* const values = data.Column(col).data();
  const size_t rows = data.num_rows();
  const size_t n = data.PresentCount(col);
  HIDO_CHECK_MSG(n > 0, "column %zu has no present values", col);
  const auto for_each_key = [&](auto&& visit) {
    for (size_t r = 0; r < rows; ++r) {
      if (!std::isnan(values[r])) visit(TotalOrderKey(values[r]));
    }
  };

  // The sorted positions the cuts read: min, max, and for equi-depth the
  // two neighbours QuantileSorted interpolates between for each i / phi.
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
  std::vector<uint64_t> selected(positions.size());
  SelectKeys(for_each_key, n, positions.data(),
             positions.data() + positions.size(), /*offset=*/0,
             selected.data());
  const auto sorted = [&](size_t p) {
    const auto at = std::lower_bound(positions.begin(), positions.end(), p);
    return FromTotalOrderKey(
        selected[static_cast<size_t>(at - positions.begin())]);
  };

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
