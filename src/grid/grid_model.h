#ifndef HIDO_GRID_GRID_MODEL_H_
#define HIDO_GRID_GRID_MODEL_H_

// The discretized view of a dataset plus the per-range membership indexes
// that make cube counting fast.
//
// For every (dimension, range) pair the model stores one bitmap over the
// points, with the range's cardinality beside it. Counting the points
// inside a k-dimensional cube — the single hot operation of both the
// brute-force and the evolutionary search — is then one fused AND+popcount
// over k bitmaps through the SIMD counting kernels
// (common/bitset_kernels.h).

#include <cstdint>
#include <limits>
#include <vector>

#include "common/bitset.h"
#include "common/run_control.h"
#include "common/status.h"
#include "data/dataset.h"
#include "grid/quantizer.h"

namespace hido {

/// One grid condition: "dimension `dim` falls in range `cell`".
struct DimRange {
  uint32_t dim;   ///< attribute index
  uint32_t cell;  ///< range index in that attribute (0..phi-1)

  friend bool operator==(const DimRange& a, const DimRange& b) {
    return a.dim == b.dim && a.cell == b.cell;
  }
  friend bool operator<(const DimRange& a, const DimRange& b) {
    return a.dim != b.dim ? a.dim < b.dim : a.cell < b.cell;
  }
};

/// Immutable discretized dataset with membership indexes.
class GridModel {
 public:
  /// Cell id assigned to missing values; never matches any condition.
  static constexpr uint32_t kMissingCell =
      std::numeric_limits<uint32_t>::max();

  /// Largest phi Build accepts. The bitmaps take d * phi * ceil(N/64) * 8
  /// bytes, so at this cap they are at most 4x the input's 8-byte columns.
  static constexpr size_t kMaxPhi = 256;

  /// Discretization parameters.
  struct Options {
    size_t phi = 10;  ///< ranges per attribute, in [2, kMaxPhi]
    BinningMode mode = BinningMode::kEquiDepth;  ///< equi-depth/equi-width
  };

  /// Creates an empty model; use Build to obtain a usable one.
  GridModel() = default;

  /// Discretizes `data` and builds the indexes. The dataset is not retained.
  /// Precondition: options.phi <= kMaxPhi (checked; callers range-check
  /// user input first).
  static GridModel Build(const Dataset& data, const Options& options);

  /// Cancellable, parallel Build: each dimension is fitted and indexed in
  /// its own task, on up to `num_threads` workers of the shared pool. The
  /// model is the same at any `num_threads`. Polls `stop` (nullable) once
  /// per dimension and every few thousand rows within a dimension. A fired
  /// token aborts with kCancelled/kDeadlineExceeded — a partially indexed
  /// grid is useless, so unlike the searches there is no best-so-far
  /// result. With stop == null this is Build(data, options).
  static Result<GridModel> Build(const Dataset& data, const Options& options,
                                 const StopToken* stop, size_t num_threads);

  size_t num_points() const { return num_points_; }  ///< indexed rows n
  size_t num_dims() const { return cells_.size(); }   ///< attributes d
  size_t phi() const { return quantizer_.num_ranges(); }  ///< ranges per dim

  /// Discretized cell of a point (kMissingCell when the value is missing).
  uint32_t Cell(size_t row, size_t dim) const {
    HIDO_DCHECK(dim < cells_.size() && row < num_points_);
    return cells_[dim][row];
  }

  /// Bitmap over the points whose `dim` coordinate lies in `cell`.
  const DynamicBitset& RangeBits(size_t dim, uint32_t cell) const;

  /// Number of points whose `dim` coordinate lies in `cell`.
  size_t RangeCardinality(size_t dim, uint32_t cell) const;

  /// Empirical fraction of points in (dim, cell) — ~1/phi under equi-depth,
  /// skewed under ties. Used by the empirical expectation model.
  double RangeFraction(size_t dim, uint32_t cell) const;

  /// True when a point satisfies all conditions (missing never matches).
  bool Covers(size_t row, const std::vector<DimRange>& conditions) const;

  const Quantizer& quantizer() const { return quantizer_; }  ///< bin edges

 private:
  size_t num_points_ = 0;
  Quantizer quantizer_;
  // cells_[dim][row]: discretized coordinate (kMissingCell when missing).
  std::vector<std::vector<uint32_t>> cells_;
  // range_bits_[dim * phi + cell]: membership bitmap of the range, and
  // range_cardinality_ at the same index its number of set bits.
  std::vector<DynamicBitset> range_bits_;
  std::vector<size_t> range_cardinality_;

  size_t IndexOf(size_t dim, uint32_t cell) const;
};

}  // namespace hido

#endif  // HIDO_GRID_GRID_MODEL_H_
