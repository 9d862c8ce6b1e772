#ifndef HIDO_CORE_BEST_SET_H_
#define HIDO_CORE_BEST_SET_H_

// The paper's BestSet: the m projections with the most negative sparsity
// coefficients seen so far, deduplicated. Both search algorithms funnel
// every evaluated cube through one of these.
//
// Empty cubes: an empty cube has the most negative coefficient possible at
// its dimensionality but covers no points, so it can never produce an
// outlier. Table 1 accordingly reports the best *non-empty* projections,
// and Offer never retains an empty cube.
//
// Determinism: entries are totally ordered by (sparsity, PackedKey), with
// the packed projection key breaking exact sparsity ties. Under that order
// the retained set is a pure function of the *multiset* of offered
// candidates — offer order, worker scheduling, and thread count cannot
// change it — which is what makes the parallel searches bit-deterministic
// and checkpoint/resume exact.

#include <cstddef>
#include <unordered_set>
#include <vector>

#include "core/objective.h"

namespace hido {

/// Bounded, deduplicated set of the best (most negative sparsity)
/// projections.
///
/// Thread-compatible, not thread-safe: the concurrency discipline is
/// ownership, not locking. Each restart/worker owns a private BestSet and
/// the owners' sets are merged single-threaded, in restart order, after the
/// parallel region joins (EvolutionarySearch / BruteForceSearch). Guarding
/// a shared set with a mutex would serialize the hot Offer path and is
/// deliberately not provided; hido_lint's no-raw-mutex rule keeps ad-hoc
/// locking from creeping in around this class.
class BestSet {
 public:
  /// Keeps at most `capacity` projections (the paper's m). capacity > 0.
  explicit BestSet(size_t capacity);

  /// Offers a scored projection; returns true if it was retained. An empty
  /// cube (count 0) is never retained.
  bool Offer(const ScoredProjection& candidate);

  /// True when `sparsity` could enter the set (ignoring deduplication).
  /// Callers use this to skip constructing hopeless candidates. Exact ties
  /// with the worst retained entry pass this filter — whether a tied
  /// candidate enters is decided by its projection key in Offer.
  bool WouldAccept(double sparsity) const;

  size_t size() const { return entries_.size(); }  ///< entries held
  bool empty() const { return entries_.empty(); }  ///< no entries yet?
  size_t capacity() const { return capacity_; }    ///< m, the cap

  /// Retained projections, most negative sparsity first (exact ties in
  /// ascending PackedKey order).
  const std::vector<ScoredProjection>& Sorted() const { return entries_; }

  /// Mean sparsity of the retained projections — Table 1's "quality"
  /// metric. 0 when empty.
  double MeanSparsity() const;

 private:
  struct KeyHash {
    size_t operator()(const std::vector<uint64_t>& key) const;
  };

  size_t capacity_;
  // Ascending by sparsity (index 0 = most negative = best).
  std::vector<ScoredProjection> entries_;
  // entry_keys_[i] is entries_[i].projection.PackedKey(), kept beside it so
  // tie comparisons and eviction build no key.
  std::vector<std::vector<uint64_t>> entry_keys_;
  std::unordered_set<std::vector<uint64_t>, KeyHash> keys_;
  // The offered candidate's key; reused, copied only on insert.
  std::vector<uint64_t> candidate_key_;
};

}  // namespace hido

#endif  // HIDO_CORE_BEST_SET_H_
