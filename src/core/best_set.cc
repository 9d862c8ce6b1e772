#include "core/best_set.h"

#include <cstddef>

#include "common/macros.h"

namespace hido {

BestSet::BestSet(size_t capacity) : capacity_(capacity) {
  HIDO_CHECK(capacity_ > 0);
}

size_t BestSet::KeyHash::operator()(const std::vector<uint64_t>& key) const {
  uint64_t h = 1469598103934665603ULL;
  for (uint64_t v : key) {
    h ^= v;
    h *= 1099511628211ULL;
  }
  return static_cast<size_t>(h);
}

bool BestSet::WouldAccept(double sparsity) const {
  return entries_.size() < capacity_ || sparsity <= entries_.back().sparsity;
}

bool BestSet::Offer(const ScoredProjection& candidate) {
  if (candidate.count == 0) return false;
  if (!WouldAccept(candidate.sparsity)) return false;
  candidate.projection.PackedKey(&candidate_key_);
  const std::vector<uint64_t>& key = candidate_key_;
  if (keys_.contains(key)) return false;
  // Does the candidate order before entry i in (sparsity, key) order?
  auto before = [&](size_t i) {
    if (candidate.sparsity != entries_[i].sparsity) {
      return candidate.sparsity < entries_[i].sparsity;
    }
    return key < entry_keys_[i];
  };
  // Exact sparsity tie with the worst retained entry: the smaller packed
  // key wins, so the retained set does not depend on offer order.
  if (entries_.size() == capacity_ && !before(entries_.size() - 1)) {
    return false;
  }

  // Insert in ascending (sparsity, key) position: after every entry the
  // candidate does not order before.
  size_t lo = 0;
  size_t hi = entries_.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (before(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  entries_.insert(entries_.begin() + static_cast<ptrdiff_t>(lo), candidate);
  entry_keys_.insert(entry_keys_.begin() + static_cast<ptrdiff_t>(lo), key);
  keys_.insert(key);
  if (entries_.size() > capacity_) {
    keys_.erase(entry_keys_.back());
    entries_.pop_back();
    entry_keys_.pop_back();
  }
  return true;
}

double BestSet::MeanSparsity() const {
  if (entries_.empty()) return 0.0;
  double sum = 0.0;
  for (const ScoredProjection& e : entries_) sum += e.sparsity;
  return sum / static_cast<double>(entries_.size());
}

}  // namespace hido
