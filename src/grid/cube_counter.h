#ifndef HIDO_GRID_CUBE_COUNTER_H_
#define HIDO_GRID_CUBE_COUNTER_H_

// Counting the points inside a k-dimensional cube — the fitness evaluation
// at the heart of both search algorithms. A 1-cube count is its range's
// stored cardinality; a k-cube count is one fused AND+popcount over the k
// range bitmaps. Counts are not memoized: see DESIGN.md "Why cube counts are
// not memoized" for the end-to-end measurement.

#include <cstdint>
#include <vector>

#include "grid/grid_model.h"

namespace hido {

/// Counts points covered by conjunctions of grid conditions.
///
/// Threading contract: one CubeCounter instance serves one thread (its
/// statistics and scratch buffer are unsynchronized mutable state).
/// Concurrent searches use one counter per worker over the shared
/// read-only grid.
///
/// Determinism: a cube count is a pure function of the grid and the
/// conditions, so counts and the statistics below are identical at any
/// thread count and counting kernel.
class CubeCounter {
 public:
  /// Counters for introspection and the micro benchmarks.
  struct Stats {
    uint64_t queries = 0;  ///< total Count() calls

    /// Element-wise accumulation (for merging per-thread counters).
    Stats& operator+=(const Stats& other);
  };

  /// `grid` must outlive the counter.
  explicit CubeCounter(const GridModel& grid);

  /// Number of points satisfying all `conditions`.
  /// Preconditions: conditions non-empty, dims pairwise distinct, every
  /// cell < phi.
  size_t Count(const std::vector<DimRange>& conditions);

  /// Sorted ids of the points satisfying all `conditions` (not counted in
  /// the statistics). Same preconditions as Count.
  std::vector<uint32_t> CoveredPoints(
      const std::vector<DimRange>& conditions) const;

  const Stats& stats() const { return stats_; }  ///< query totals

  /// Folds another counter's statistics into this one. Used to aggregate
  /// the private per-thread counters of a parallel search into the caller's
  /// counter, so totals stay truthful under concurrency.
  void AbsorbStats(const Stats& other) { stats_ += other; }

  const GridModel& grid() const { return *grid_; }  ///< the indexed grid

 private:
  const GridModel* grid_;
  Stats stats_;
  std::vector<const uint64_t*> sources_;  ///< the count's word arrays
};

}  // namespace hido

#endif  // HIDO_GRID_CUBE_COUNTER_H_
