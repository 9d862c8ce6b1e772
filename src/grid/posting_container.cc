#include "grid/posting_container.h"

#include <algorithm>
#include <utility>

namespace hido {

PostingContainer PostingContainer::FromIds(std::vector<uint32_t> ids,
                                           size_t universe,
                                           size_t array_threshold) {
  PostingContainer c;
  c.universe_ = universe;
  c.cardinality_ = ids.size();
  HIDO_DCHECK(std::is_sorted(ids.begin(), ids.end()));
  if (ids.size() < array_threshold) {
    c.kind_ = Kind::kArray;
    c.ids_ = std::move(ids);
    return c;
  }
  c.kind_ = Kind::kBitmap;
  c.bits_ = DynamicBitset(universe);
  for (uint32_t id : ids) c.bits_.Set(id);
  return c;
}

bool PostingContainer::Contains(uint32_t id) const {
  HIDO_DCHECK(id < universe_);
  if (kind_ == Kind::kBitmap) return bits_.Test(id);
  return std::binary_search(ids_.begin(), ids_.end(), id);
}

size_t PostingContainer::AndCountWith(const DynamicBitset& bits) const {
  HIDO_CHECK(universe_ == bits.size());
  if (kind_ == Kind::kBitmap) return bits_.AndCount(bits);
  size_t count = 0;
  for (uint32_t id : ids_) count += bits.Test(id) ? 1 : 0;
  return count;
}

size_t PostingContainer::AndInto(DynamicBitset& dst) const {
  HIDO_CHECK(universe_ == dst.size());
  if (kind_ == Kind::kBitmap) return dst.AndCountInto(bits_);
  // Array path: only members surviving in dst remain set. The array is
  // small by construction, so collecting survivors then rebuilding costs
  // O(words + |array|).
  std::vector<uint32_t> survivors;
  survivors.reserve(ids_.size());
  for (uint32_t id : ids_) {
    if (dst.Test(id)) survivors.push_back(id);
  }
  dst.ClearAll();
  for (uint32_t id : survivors) dst.Set(id);
  return survivors.size();
}

void PostingContainer::MaterializeInto(DynamicBitset& dst) const {
  HIDO_CHECK(universe_ == dst.size());
  if (kind_ == Kind::kBitmap) {
    dst = bits_;
    return;
  }
  dst.ClearAll();
  for (uint32_t id : ids_) dst.Set(id);
}

void PostingContainer::AppendIds(std::vector<uint32_t>& out) const {
  if (kind_ == Kind::kBitmap) {
    bits_.AppendSetBits(out);
    return;
  }
  out.insert(out.end(), ids_.begin(), ids_.end());
}

std::vector<uint32_t> PostingContainer::ToIds() const {
  std::vector<uint32_t> out;
  out.reserve(cardinality_);
  AppendIds(out);
  return out;
}

}  // namespace hido
