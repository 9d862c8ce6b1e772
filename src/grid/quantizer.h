#ifndef HIDO_GRID_QUANTIZER_H_
#define HIDO_GRID_QUANTIZER_H_

// Grid discretization of a dataset (§1.3 of the paper).
//
// Each attribute is divided into phi ranges. The paper uses *equi-depth*
// ranges — each holds a fraction f = 1/phi of the records — so that the
// grid adapts to local density; equi-width binning is provided for
// comparison. Ranges are the "units of locality" from which k-dimensional
// cubes are assembled.

#include <cstdint>
#include <utility>
#include <vector>

#include "data/dataset.h"

namespace hido {

/// How per-attribute range boundaries are chosen.
enum class BinningMode {
  kEquiDepth,  ///< quantile breakpoints: ~N/phi records per range (paper)
  kEquiWidth,  ///< equal-length intervals between column min and max
};

/// Per-column discretizer fitted on a dataset.
///
/// Cells are numbered 0..phi-1 per column. Values tied with a breakpoint go
/// to the higher cell; heavy ties can make equi-depth cells uneven (the
/// degenerate case of a constant column collapses to a single used cell),
/// which the sparsity objective's empirical-marginal mode can compensate
/// for.
class Quantizer {
 public:
  /// Discretization parameters.
  struct Options {
    size_t num_ranges = 10;  ///< phi
    BinningMode mode = BinningMode::kEquiDepth;  ///< cut-point placement
  };

  /// Creates an empty (unfitted) quantizer; use Fit to obtain a usable one.
  Quantizer() = default;

  /// The fitted range boundaries of one column.
  struct ColumnFit {
    std::vector<double> cuts;  ///< num_ranges - 1 non-decreasing breakpoints
    double min = 0.0;          ///< smallest present value
    double max = 0.0;          ///< largest present value
  };

  /// Fits breakpoints on every column of `data` (missing cells ignored).
  /// Preconditions: num_ranges >= 2, data has at least one row, and every
  /// column has at least one present value.
  static Quantizer Fit(const Dataset& data, const Options& options);

  /// Fits column `col` of `data` alone, as Fit does. Equi-depth cuts need
  /// only the order statistics QuantileSorted reads, so they are found by a
  /// most-significant-digit radix selection rather than a sort: on 64-bit
  /// keys whose unsigned order is the IEEE total order (-0.0 before +0.0),
  /// made from the column's present values as each pass reads them, with
  /// only the buckets that hold a wanted position copied. Cuts, min and max
  /// are bitwise those of a full sort under that order. Same preconditions
  /// as Fit, for that column.
  static ColumnFit FitColumn(const Dataset& data, size_t col,
                             const Options& options);

  /// Number of `cuts` (ascending) that are <= `value`, which is the cell
  /// of `value` on a column with those cuts.
  static uint32_t CountCutsAtMost(const std::vector<double>& cuts,
                                  double value);

  /// Reconstructs a quantizer from previously fitted state (snapshot
  /// loading; see serve/snapshot.h). Per column: num_ranges-1
  /// non-decreasing interior cuts plus the fitted min/max. Sizes are
  /// checked.
  static Quantizer FromCuts(const Options& options,
                            std::vector<std::vector<double>> cuts,
                            std::vector<double> col_min,
                            std::vector<double> col_max);

  size_t num_ranges() const { return num_ranges_; }  ///< phi
  size_t num_cols() const { return cuts_.size(); }   ///< fitted columns
  BinningMode mode() const { return mode_; }         ///< as fitted

  /// Cell index of `value` on column `col`, in [0, num_ranges).
  uint32_t CellOf(size_t col, double value) const;

  /// Half-open value interval [lo, hi) covered by a cell (the last cell's
  /// upper bound is +infinity conceptually; it is reported as the fitted
  /// column max). For interpretability output.
  std::pair<double, double> CellBounds(size_t col, uint32_t cell) const;

  /// Interior breakpoints of a column (size num_ranges - 1, ascending).
  const std::vector<double>& Cuts(size_t col) const;

 private:
  size_t num_ranges_ = 0;
  BinningMode mode_ = BinningMode::kEquiDepth;
  std::vector<std::vector<double>> cuts_;  // per column, phi-1 breakpoints
  std::vector<double> col_min_;
  std::vector<double> col_max_;
};

}  // namespace hido

#endif  // HIDO_GRID_QUANTIZER_H_
