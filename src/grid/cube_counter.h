#ifndef HIDO_GRID_CUBE_COUNTER_H_
#define HIDO_GRID_CUBE_COUNTER_H_

// Counting the points inside a k-dimensional cube — the fitness evaluation
// at the heart of both search algorithms. Two interchangeable strategies
// (bitset AND+popcount, posting-list intersection), chosen per query from
// the containers involved. Counts are not memoized: see DESIGN.md "Why cube
// counts are not memoized" for the end-to-end measurement.

#include <cstdint>
#include <deque>
#include <vector>

#include "common/bitset.h"
#include "grid/grid_model.h"

namespace hido {

/// How CubeCounter intersects range memberships.
enum class CountingStrategy {
  kAuto,         ///< pick per query from the containers (default)
  kBitset,       ///< AND of membership bitsets, popcount
  kPostingList,  ///< probe the smallest range's ids against the others
};

/// Counts points covered by conjunctions of grid conditions.
///
/// Threading contract: one CubeCounter instance serves one thread (its
/// statistics and scratch buffers are unsynchronized mutable state).
/// Concurrent searches use one counter per worker over the shared
/// read-only grid.
///
/// Determinism: a cube count is a pure function of the grid and the
/// conditions, and so is the strategy that serves it under kAuto (it
/// follows the container representations, i.e. the container threshold).
/// Counts and the per-strategy statistics below are therefore identical
/// at any thread count.
class CubeCounter {
 public:
  /// Strategy selection.
  struct Options {
    CountingStrategy strategy = CountingStrategy::kAuto;  ///< counting path
  };

  /// Counters for introspection and the micro benchmarks. Invariant:
  ///
  ///   queries == bitset_counts + posting_counts
  ///
  /// — every query is computed by exactly one strategy.
  struct Stats {
    uint64_t queries = 0;         ///< total Count() calls
    uint64_t bitset_counts = 0;   ///< answered by bitset intersection
    uint64_t posting_counts = 0;  ///< answered by posting-list probing

    /// Element-wise accumulation (for merging per-thread counters).
    Stats& operator+=(const Stats& other);
  };

  /// `grid` must outlive the counter. Default options: kAuto.
  explicit CubeCounter(const GridModel& grid);
  /// Same, with an explicit strategy.
  CubeCounter(const GridModel& grid, const Options& options);

  /// Number of points satisfying all `conditions`.
  /// Preconditions: conditions non-empty, dims pairwise distinct, every
  /// cell < phi.
  size_t Count(const std::vector<DimRange>& conditions);

  /// Sorted ids of the points satisfying all `conditions` (not counted in
  /// the statistics). Same preconditions as Count.
  std::vector<uint32_t> CoveredPoints(
      const std::vector<DimRange>& conditions) const;

  const Stats& stats() const { return stats_; }  ///< query/path totals

  /// Folds another counter's statistics into this one. Used to aggregate
  /// the private per-thread counters of a parallel search into the caller's
  /// counter, so totals stay truthful under concurrency.
  void AbsorbStats(const Stats& other) { stats_ += other; }

  const GridModel& grid() const { return *grid_; }  ///< the indexed grid
  const Options& options() const { return options_; }  ///< as constructed

 private:
  CountingStrategy Choose(const std::vector<DimRange>& conditions) const;
  /// The bitset path: one fused AND+popcount over the cube's bitmaps.
  size_t CountBitset(const std::vector<DimRange>& conditions);
  /// The posting-list path: ids of the smallest container, filtered by
  /// probing every other container.
  std::vector<uint32_t> IntersectIds(
      const std::vector<DimRange>& conditions) const;

  const GridModel* grid_;
  Options options_;
  Stats stats_;
  std::vector<const uint64_t*> sources_;  ///< the count's word arrays
  /// Bitmap copies of array containers, used only under a forced kBitset.
  /// A deque: growing it never moves a bitmap `sources_` points into.
  std::deque<DynamicBitset> scratch_;
};

}  // namespace hido

#endif  // HIDO_GRID_CUBE_COUNTER_H_
