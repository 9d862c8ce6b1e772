#include "common/bitset.h"

#include <bit>

#include "common/bitset_kernels.h"

namespace hido {

DynamicBitset::DynamicBitset(size_t size)
    : size_(size), words_(WordCount(size), 0) {}

void DynamicBitset::Set(size_t i) {
  HIDO_DCHECK(i < size_);
  words_[i / kBitsPerWord] |= uint64_t{1} << (i % kBitsPerWord);
}

void DynamicBitset::Clear(size_t i) {
  HIDO_DCHECK(i < size_);
  words_[i / kBitsPerWord] &= ~(uint64_t{1} << (i % kBitsPerWord));
}

bool DynamicBitset::Test(size_t i) const {
  HIDO_DCHECK(i < size_);
  return (words_[i / kBitsPerWord] >> (i % kBitsPerWord)) & 1u;
}

void DynamicBitset::SetAll() {
  for (uint64_t& w : words_) w = ~uint64_t{0};
  MaskTail();
}

void DynamicBitset::ClearAll() {
  for (uint64_t& w : words_) w = 0;
}

void DynamicBitset::MaskTail() {
  const size_t rem = size_ % kBitsPerWord;
  if (rem != 0 && !words_.empty()) {
    words_.back() &= (uint64_t{1} << rem) - 1;
  }
}

size_t DynamicBitset::Count() const {
  const uint64_t* const srcs[] = {words_.data()};
  return ActiveKernels().and_count_many(srcs, 1, words_.size());
}

void DynamicBitset::AndWith(const DynamicBitset& other) {
  HIDO_CHECK(size_ == other.size_);
  ActiveKernels().and_with(words_.data(), other.words_.data(), words_.size());
}

size_t DynamicBitset::AndCount(const DynamicBitset& other) const {
  HIDO_CHECK(size_ == other.size_);
  const uint64_t* const srcs[] = {words_.data(), other.words_.data()};
  return ActiveKernels().and_count_many(srcs, 2, words_.size());
}

size_t DynamicBitset::AndCountInto(const DynamicBitset& other) {
  HIDO_CHECK(size_ == other.size_);
  return ActiveKernels().and_count_into(words_.data(), other.words_.data(),
                                        words_.size());
}

void DynamicBitset::AppendSetBits(std::vector<uint32_t>& out) const {
  for (size_t wi = 0; wi < words_.size(); ++wi) {
    uint64_t w = words_[wi];
    while (w != 0) {
      const int bit = std::countr_zero(w);
      out.push_back(static_cast<uint32_t>(wi * kBitsPerWord +
                                          static_cast<size_t>(bit)));
      w &= w - 1;
    }
  }
}

std::vector<uint32_t> DynamicBitset::ToIndices() const {
  std::vector<uint32_t> out;
  out.reserve(Count());
  AppendSetBits(out);
  return out;
}

}  // namespace hido
