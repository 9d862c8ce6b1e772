#ifndef HIDO_COMMON_RNG_H_
#define HIDO_COMMON_RNG_H_

// Deterministic pseudo-random number generation.
//
// Every randomized component in the library (data generators, the
// evolutionary search, baselines that sample) takes an explicit Rng so that
// experiments are reproducible bit-for-bit from a seed. The generator is
// xoshiro256**, seeded through SplitMix64; it is small, fast, and has no
// global state.

#include <cstdint>
#include <vector>

#include "common/macros.h"

namespace hido {

/// Complete serializable Rng state (xoshiro words plus the cached spare
/// normal variate), for checkpoint/resume of randomized runs: restoring a
/// saved state continues the exact variate stream of the original run.
struct RngState {
  uint64_t s[4] = {0, 0, 0, 0};   ///< xoshiro256++ state words
  double spare_normal = 0.0;      ///< banked Box-Muller variate
  bool has_spare_normal = false;  ///< spare_normal valid?
};

/// xoshiro256** PRNG with convenience sampling methods.
///
/// Not thread-safe; give each thread (or each experiment) its own instance.
/// Satisfies the UniformRandomBitGenerator concept so it can also be used
/// with <random> distributions and std::shuffle.
class Rng {
 public:
  using result_type = uint64_t;

  /// Seeds the generator. Any seed (including 0) yields a good state.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }      ///< UniformRandomBitGenerator
  static constexpr result_type max() { return ~0ULL; }  ///< UniformRandomBitGenerator

  /// Next raw 64 random bits.
  uint64_t operator()() { return Next64(); }  ///< UniformRandomBitGenerator
  /// The next 64 raw bits from the stream.
  uint64_t Next64();

  /// Uniform integer in [0, bound). Precondition: bound > 0.
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  uint64_t UniformU64(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Precondition: lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform size_t index in [0, n). Precondition: n > 0.
  size_t UniformIndex(size_t n) { return static_cast<size_t>(UniformU64(n)); }

  /// Uniform double in [0, 1).
  double UniformDouble();

  /// Uniform double in [lo, hi). Precondition: lo < hi.
  double UniformDouble(double lo, double hi);

  /// Standard normal variate (Marsaglia polar method, cached spare).
  double Normal();

  /// Normal variate with the given mean and standard deviation (sigma >= 0).
  double Normal(double mean, double sigma);

  /// Bernoulli trial: true with probability `p` (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Fisher-Yates shuffle of `items`.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (size_t i = items.size(); i > 1; --i) {
      size_t j = UniformIndex(i);
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// Replaces `*out` with `count` distinct indices from [0, n), in
  /// increasing order. Precondition: count <= n. A Fisher-Yates shuffle of
  /// [0, n) in `*out` when count >= n / 2; otherwise Floyd's algorithm,
  /// which checks each draw for a repeat by scanning the picks so far
  /// (O(count^2) comparisons: callers draw a few dimensions or rows). A
  /// caller that reuses `*out` allocates nothing.
  void SampleWithoutReplacement(size_t n, size_t count,
                                std::vector<size_t>* out);

  /// Samples an index in [0, cumulative.size()) with probability
  /// proportional to weight i, given the weights' running sums
  /// (cumulative[i] = w[0] + ... + w[i], added in index order). A binary
  /// search, so a caller that draws many times from one set of weights
  /// forms the sums once. Preconditions: non-empty, non-decreasing (every
  /// weight >= 0; checked in debug builds), total > 0. This is the
  /// "roulette wheel" used by the paper's rank-selection operator.
  size_t WeightedIndex(const std::vector<double>& cumulative);

  /// Derives an independent child generator (for splitting experiment seeds
  /// into per-component streams without correlation).
  Rng Split();

  /// Deterministic per-stream generator: the same (seed, stream) pair always
  /// yields the same generator, and distinct streams are decorrelated by a
  /// SplitMix64 avalanche. Used to give each evolutionary restart its own
  /// stream derived from the experiment seed, so results are bit-identical
  /// no matter how restarts are scheduled across threads.
  static Rng ForStream(uint64_t seed, uint64_t stream);

  /// Snapshots the full generator state (for checkpointing).
  RngState SaveState() const {
    RngState state;
    for (size_t i = 0; i < 4; ++i) state.s[i] = state_[i];
    state.spare_normal = spare_normal_;
    state.has_spare_normal = has_spare_normal_;
    return state;
  }

  /// Restores a snapshot taken with SaveState.
  void RestoreState(const RngState& state) {
    for (size_t i = 0; i < 4; ++i) state_[i] = state.s[i];
    spare_normal_ = state.spare_normal;
    has_spare_normal_ = state.has_spare_normal;
  }

 private:
  uint64_t state_[4];
  double spare_normal_ = 0.0;
  bool has_spare_normal_ = false;
};

}  // namespace hido

#endif  // HIDO_COMMON_RNG_H_
