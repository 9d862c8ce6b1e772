#ifndef HIDO_GRID_POSTING_CONTAINER_H_
#define HIDO_GRID_POSTING_CONTAINER_H_

// Roaring-style hybrid membership container for one (dimension, range)
// pair. Dense ranges keep the
// DynamicBitset (one bit per point, AND+popcount through the counting
// kernels); sparse ranges (cardinality below a build-time threshold)
// store a sorted array of point ids instead, which is both smaller
// (4 bytes per member vs. one bit per point) and faster to intersect
// when almost every word of the bitmap would be zero.
//
// The representation is an encoding choice, never a semantic one: every
// operation computes the same pure set function in either form, so cube
// counts — and therefore reports — are byte-identical across container
// thresholds. Intersections with a materialized bitmap cover both forms
// (a bitmap through the kernel table, an array by probing the bitmap).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bitset.h"
#include "common/macros.h"

namespace hido {

/// Sorted-id or bitmap membership set over a fixed universe of points.
class PostingContainer {
 public:
  /// Physical representation of the member set.
  enum class Kind {
    kArray,   ///< sorted vector of point ids (sparse)
    kBitmap,  ///< DynamicBitset over the universe (dense)
  };

  /// An empty array container over an empty universe.
  PostingContainer() = default;

  /// Builds a container over `universe` points from ascending `ids`.
  /// Becomes an array when ids.size() < array_threshold, else a bitmap.
  static PostingContainer FromIds(std::vector<uint32_t> ids, size_t universe,
                                  size_t array_threshold);

  Kind kind() const { return kind_; }          ///< physical representation
  size_t universe() const { return universe_; }  ///< points in the grid
  size_t cardinality() const { return cardinality_; }  ///< members

  /// True when `id` is a member. Precondition: id < universe().
  bool Contains(uint32_t id) const;

  /// |this ∩ bits| where `bits` is an already-materialized intersection.
  /// Precondition: bits.size() == universe().
  size_t AndCountWith(const DynamicBitset& bits) const;

  /// dst &= this, returning |dst| afterwards (fused kernel on the bitmap
  /// path; the array path rebuilds dst from its surviving members).
  /// Precondition: dst.size() == universe().
  size_t AndInto(DynamicBitset& dst) const;

  /// Overwrites `dst` with this set in bitmap form.
  /// Precondition: dst.size() == universe().
  void MaterializeInto(DynamicBitset& dst) const;

  /// Appends all member ids to `out`, ascending.
  void AppendIds(std::vector<uint32_t>& out) const;

  /// All member ids, ascending.
  std::vector<uint32_t> ToIds() const;

  /// The sorted id array. Precondition: kind() == kArray.
  const std::vector<uint32_t>& array_ids() const {
    HIDO_DCHECK(kind_ == Kind::kArray);
    return ids_;
  }

  /// The bitmap. Precondition: kind() == kBitmap.
  const DynamicBitset& bitmap() const {
    HIDO_DCHECK(kind_ == Kind::kBitmap);
    return bits_;
  }

 private:
  Kind kind_ = Kind::kArray;
  size_t universe_ = 0;
  size_t cardinality_ = 0;
  std::vector<uint32_t> ids_;  ///< populated iff kind_ == kArray
  DynamicBitset bits_;         ///< populated iff kind_ == kBitmap
};

}  // namespace hido

#endif  // HIDO_GRID_POSTING_CONTAINER_H_
