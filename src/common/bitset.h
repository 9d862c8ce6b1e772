#ifndef HIDO_COMMON_BITSET_H_
#define HIDO_COMMON_BITSET_H_

// Fixed-size dynamic bitset tuned for the grid model's point-membership
// vectors: the hot operations are AND-with-popcount across several sets
// (counting the points inside a k-dimensional cube) without materializing
// intermediates.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/macros.h"

namespace hido {

/// A bitset whose size is fixed at construction time.
class DynamicBitset {
 public:
  /// Creates a bitset of `size` bits, all clear.
  explicit DynamicBitset(size_t size = 0);

  DynamicBitset(const DynamicBitset&) = default;
  DynamicBitset& operator=(const DynamicBitset&) = default;
  DynamicBitset(DynamicBitset&&) = default;
  DynamicBitset& operator=(DynamicBitset&&) = default;

  size_t size() const { return size_; }  ///< bits tracked

  /// Sets bit `i`. Precondition: i < size().
  void Set(size_t i);
  /// Clears bit `i`. Precondition: i < size().
  void Clear(size_t i);
  /// Tests bit `i`. Precondition: i < size().
  bool Test(size_t i) const;

  /// Sets every bit.
  void SetAll();
  /// Clears every bit.
  void ClearAll();

  /// Number of set bits.
  size_t Count() const;

  /// In-place intersection with `other`. Precondition: equal sizes.
  void AndWith(const DynamicBitset& other);

  /// Population count of (*this AND other) without allocating.
  /// Precondition: equal sizes.
  size_t AndCount(const DynamicBitset& other) const;

  /// Fused AndWith + Count in one pass: intersects in place and returns
  /// the number of surviving bits. Precondition: equal sizes.
  size_t AndCountInto(const DynamicBitset& other);

  /// The backing words: bit i is bit i % 64 of word i / 64, and the bits
  /// past size() are clear. Lets callers hand several sets to one
  /// BitsetKernels call.
  const uint64_t* words() const { return words_.data(); }
  /// Number of words backing size() bits.
  size_t num_words() const { return words_.size(); }

  /// Appends the indices of all set bits to `out`, ascending.
  void AppendSetBits(std::vector<uint32_t>& out) const;

  /// Indices of all set bits, ascending.
  std::vector<uint32_t> ToIndices() const;

  friend bool operator==(const DynamicBitset& a, const DynamicBitset& b) {
    return a.size_ == b.size_ && a.words_ == b.words_;
  }

 private:
  static constexpr size_t kBitsPerWord = 64;
  static size_t WordCount(size_t bits) {
    return (bits + kBitsPerWord - 1) / kBitsPerWord;
  }
  // Clears the unused high bits of the final word so Count() stays exact.
  void MaskTail();

  size_t size_;
  std::vector<uint64_t> words_;
};

}  // namespace hido

#endif  // HIDO_COMMON_BITSET_H_
