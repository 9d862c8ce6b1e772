#ifndef HIDO_CORE_PROJECTION_H_
#define HIDO_CORE_PROJECTION_H_

// The solution encoding of §2.2: a string with one position per dimension,
// each holding either a grid range or "*" (don't care). A string with k
// specified positions denotes a k-dimensional cube. Example (d=4, phi=10):
// the paper's *3*9 fixes ranges on dimensions 2 and 4 only.
//
// Internally cells are 0-based (0..phi-1); ToString prints them 1-based to
// match the paper's notation.

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "grid/grid_model.h"

namespace hido {

/// A (possibly partial) grid cube over d dimensions.
class Projection {
 public:
  /// Sentinel for an unspecified ("*") position.
  static constexpr uint16_t kDontCare = 0xFFFF;

  /// All-don't-care projection over `num_dims` dimensions.
  explicit Projection(size_t num_dims = 0);

  /// Uniformly random k-dimensional projection: k distinct dimensions, each
  /// with a uniform cell in [0, phi). Preconditions: k <= num_dims, phi >= 1.
  static Projection Random(size_t num_dims, size_t k, size_t phi, Rng& rng);

  /// Overwrites this projection with what Random(num_dims(), k, phi, rng)
  /// returns, drawing the same numbers. `dims` is the caller's scratch for
  /// the sampled dimensions: with both reused, nothing is allocated.
  void Randomize(size_t k, size_t phi, Rng& rng, std::vector<size_t>* dims);

  /// Builds a projection from explicit conditions (dims pairwise distinct).
  static Projection FromConditions(size_t num_dims,
                                   const std::vector<DimRange>& conditions);

  size_t num_dims() const { return cells_.size(); }  ///< total dims d

  /// Number of specified (non-*) positions — the cube's dimensionality.
  size_t Dimensionality() const { return specified_; }

  /// Does the projection constrain `dim` (non-star position)?
  bool IsSpecified(size_t dim) const {
    HIDO_DCHECK(dim < cells_.size());
    return cells_[dim] != kDontCare;
  }

  /// Cell at a specified position. Precondition: IsSpecified(dim).
  uint32_t CellAt(size_t dim) const {
    HIDO_DCHECK(dim < cells_.size());
    HIDO_DCHECK(cells_[dim] != kDontCare);
    return cells_[dim];
  }

  /// Sets position `dim` to `cell` (cell < kDontCare).
  void Specify(size_t dim, uint32_t cell);

  /// Resets position `dim` to "*".
  void Unspecify(size_t dim);

  /// Resets every position to "*".
  void Clear();

  /// The specified positions as grid conditions, ascending by dimension.
  std::vector<DimRange> Conditions() const;

  /// The specified dimensions, ascending.
  std::vector<size_t> SpecifiedDims() const;

  /// Paper-style rendering, e.g. "*3*9" (multi-digit cells are
  /// dot-separated: "*.12.*.9").
  std::string ToString() const;

  /// Dense order-independent key for hashing/deduplication: one word
  /// (dim << 32 | cell) per specified position, ascending by dimension.
  std::vector<uint64_t> PackedKey() const;

  /// PackedKey() written into `*key`, whose storage is reused.
  void PackedKey(std::vector<uint64_t>* key) const;

  friend bool operator==(const Projection& a, const Projection& b) {
    return a.cells_ == b.cells_;
  }

  /// Lexicographic order of the position strings: a strict total order
  /// consistent with ==, for grouping equal strings. Not PackedKey order.
  friend bool operator<(const Projection& a, const Projection& b) {
    return a.cells_ < b.cells_;
  }

 private:
  std::vector<uint16_t> cells_;
  size_t specified_ = 0;
};

}  // namespace hido

#endif  // HIDO_CORE_PROJECTION_H_
