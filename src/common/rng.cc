#include "common/rng.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>

namespace hido {

namespace {

// SplitMix64: expands a single 64-bit seed into well-mixed state words.
uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (uint64_t& word : state_) {
    word = SplitMix64(sm);
  }
}

uint64_t Rng::Next64() {
  // xoshiro256** step (Blackman & Vigna).
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

uint64_t Rng::UniformU64(uint64_t bound) {
  HIDO_CHECK(bound > 0);
  // Lemire's method: multiply into 128 bits, reject the biased low slice.
  unsigned __int128 m =
      static_cast<unsigned __int128>(Next64()) * static_cast<unsigned __int128>(bound);
  uint64_t low = static_cast<uint64_t>(m);
  if (low < bound) {
    uint64_t threshold = (0ULL - bound) % bound;
    while (low < threshold) {
      m = static_cast<unsigned __int128>(Next64()) *
          static_cast<unsigned __int128>(bound);
      low = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  HIDO_CHECK(lo <= hi);
  uint64_t span = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
  if (span == 0) {
    // Full 64-bit range.
    return static_cast<int64_t>(Next64());
  }
  return lo + static_cast<int64_t>(UniformU64(span));
}

double Rng::UniformDouble() {
  // 53 random bits into [0, 1).
  return static_cast<double>(Next64() >> 11) * 0x1.0p-53;
}

double Rng::UniformDouble(double lo, double hi) {
  HIDO_CHECK(lo < hi);
  return lo + (hi - lo) * UniformDouble();
}

double Rng::Normal() {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return spare_normal_;
  }
  // Marsaglia polar method.
  double u = 0.0;
  double v = 0.0;
  double s = 0.0;
  do {
    u = UniformDouble(-1.0, 1.0);
    v = UniformDouble(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_normal_ = v * factor;
  has_spare_normal_ = true;
  return u * factor;
}

double Rng::Normal(double mean, double sigma) {
  HIDO_CHECK(sigma >= 0.0);
  return mean + sigma * Normal();
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return UniformDouble() < p;
}

void Rng::SampleWithoutReplacement(size_t n, size_t count,
                                   std::vector<size_t>* out) {
  HIDO_CHECK(count <= n);
  out->clear();
  if (count == 0) return;
  if (count * 2 >= n) {
    // Dense case: shuffle a full index vector and take a prefix.
    out->resize(n);
    std::iota(out->begin(), out->end(), size_t{0});
    Shuffle(*out);
    out->resize(count);
  } else {
    // Sparse case: Floyd's algorithm — O(count) expected draws. Step j
    // keeps its draw t unless t was picked before, and then j, which no
    // earlier step could pick.
    for (size_t j = n - count; j < n; ++j) {
      const size_t t = UniformIndex(j + 1);
      const bool repeat = std::find(out->begin(), out->end(), t) != out->end();
      out->push_back(repeat ? j : t);
    }
  }
  std::sort(out->begin(), out->end());
}

size_t Rng::WeightedIndex(const std::vector<double>& cumulative) {
  HIDO_CHECK(!cumulative.empty());
  HIDO_DCHECK(std::is_sorted(cumulative.begin(), cumulative.end()) &&
              cumulative.front() >= 0.0);
  const double total = cumulative.back();
  HIDO_CHECK_MSG(total > 0.0, "WeightedIndex requires positive total weight");
  const double target = UniformDouble() * total;
  // The first index whose running sum exceeds the target.
  auto it = std::upper_bound(cumulative.begin(), cumulative.end(), target);
  if (it == cumulative.end()) {
    // Floating-point slack: fall back to the last positive-weight entry,
    // the first one whose running sum reaches the total.
    it = std::lower_bound(cumulative.begin(), cumulative.end(), total);
  }
  return static_cast<size_t>(it - cumulative.begin());
}

Rng Rng::Split() { return Rng(Next64()); }

Rng Rng::ForStream(uint64_t seed, uint64_t stream) {
  // Avalanche the stream id before folding it into the seed, so adjacent
  // streams (0, 1, 2, ...) do not map to adjacent SplitMix64 chains.
  uint64_t s = stream;
  return Rng(seed ^ SplitMix64(s));
}

}  // namespace hido
