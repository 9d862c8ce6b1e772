#include "core/projection.h"

#include <algorithm>

#include "common/string_util.h"

namespace hido {

Projection::Projection(size_t num_dims) : cells_(num_dims, kDontCare) {}

Projection Projection::Random(size_t num_dims, size_t k, size_t phi,
                              Rng& rng) {
  Projection p(num_dims);
  std::vector<size_t> dims;
  p.Randomize(k, phi, rng, &dims);
  return p;
}

void Projection::Randomize(size_t k, size_t phi, Rng& rng,
                           std::vector<size_t>* dims) {
  HIDO_CHECK(k <= cells_.size());
  HIDO_CHECK(phi >= 1 && phi < kDontCare);
  Clear();
  rng.SampleWithoutReplacement(cells_.size(), k, dims);
  for (size_t d : *dims) {
    Specify(d, static_cast<uint32_t>(rng.UniformIndex(phi)));
  }
}

Projection Projection::FromConditions(
    size_t num_dims, const std::vector<DimRange>& conditions) {
  Projection p(num_dims);
  for (const DimRange& c : conditions) {
    HIDO_CHECK_MSG(!p.IsSpecified(c.dim), "duplicate dimension %u", c.dim);
    p.Specify(c.dim, c.cell);
  }
  return p;
}

void Projection::Specify(size_t dim, uint32_t cell) {
  HIDO_CHECK(dim < cells_.size());
  HIDO_CHECK(cell < kDontCare);
  if (cells_[dim] == kDontCare) ++specified_;
  cells_[dim] = static_cast<uint16_t>(cell);
}

void Projection::Unspecify(size_t dim) {
  HIDO_CHECK(dim < cells_.size());
  if (cells_[dim] != kDontCare) --specified_;
  cells_[dim] = kDontCare;
}

void Projection::Clear() {
  std::fill(cells_.begin(), cells_.end(), kDontCare);
  specified_ = 0;
}

std::vector<DimRange> Projection::Conditions() const {
  std::vector<DimRange> out;
  out.reserve(specified_);
  for (size_t d = 0; d < cells_.size(); ++d) {
    if (cells_[d] != kDontCare) {
      out.push_back({static_cast<uint32_t>(d), cells_[d]});
    }
  }
  return out;
}

std::vector<size_t> Projection::SpecifiedDims() const {
  std::vector<size_t> out;
  out.reserve(specified_);
  for (size_t d = 0; d < cells_.size(); ++d) {
    if (cells_[d] != kDontCare) out.push_back(d);
  }
  return out;
}

std::string Projection::ToString() const {
  // Single characters when every cell is one digit (1-based), otherwise
  // dot-separated.
  bool compact = true;
  for (uint16_t c : cells_) {
    if (c != kDontCare && c + 1 > 9) {
      compact = false;
      break;
    }
  }
  std::string out;
  for (size_t d = 0; d < cells_.size(); ++d) {
    if (!compact && d > 0) out.push_back('.');
    if (cells_[d] == kDontCare) {
      out.push_back('*');
    } else {
      out += StrFormat("%u", cells_[d] + 1);
    }
  }
  return out;
}

std::vector<uint64_t> Projection::PackedKey() const {
  std::vector<uint64_t> key;
  PackedKey(&key);
  return key;
}

void Projection::PackedKey(std::vector<uint64_t>* key) const {
  key->clear();
  key->reserve(specified_);
  for (size_t d = 0; d < cells_.size(); ++d) {
    if (cells_[d] != kDontCare) {
      key->push_back((static_cast<uint64_t>(d) << 32) | cells_[d]);
    }
  }
}

}  // namespace hido
