#include "core/brute_force.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/macros.h"
#include "common/parallel.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hido {

namespace {

// Run state shared by all workers: the options and the stop latch.
struct Shared {
  explicit Shared(const BruteForceOptions& opts)
      : options(opts), poller(opts.stop) {}
  const BruteForceOptions& options;
  StopPoller poller;
  StopWatch watch;
};

// Depth-first enumeration below one root condition. Dimensions are chosen
// in increasing order so every k-combination is visited exactly once,
// mirroring the paper's R_i = R_{i-1} (+) Q_1 candidate sets without
// materializing them. One Worker per thread; each owns its scratch bitsets,
// BestSet, and statistics (merged by the caller). A 1-condition prefix is
// the root range's own bitmap; only deeper prefixes need scratch.
class Worker {
 public:
  Worker(const SparsityObjective& objective, Shared& shared)
      : objective_(objective),
        grid_(objective.grid()),
        shared_(shared),
        best_(shared.options.num_projections),
        level_bits_(shared.options.target_dim >= 3
                        ? shared.options.target_dim - 2
                        : 0,
                    DynamicBitset(grid_.num_points())) {
    conditions_.reserve(shared.options.target_dim);
  }

  // Enumerates every cube whose lowest condition is (dim, cell).
  void ProcessRoot(size_t dim, uint32_t cell) {
    // Root granularity: poll even when subtrees are smaller than the
    // in-subtree polling stride.
    if (shared_.poller.ShouldStop()) return;
    const size_t k = shared_.options.target_dim;
    conditions_.push_back({static_cast<uint32_t>(dim), cell});
    const double probability = grid_.RangeFraction(dim, cell);
    ++stats_.nodes_visited;
    if (k == 1) {
      ScoreLeaf(grid_.RangeCardinality(dim, cell), probability);
    } else {
      root_bits_ = &grid_.RangeBits(dim, cell);
      const size_t count = grid_.RangeCardinality(dim, cell);
      if (count == 0) {
        ++stats_.subtrees_pruned;
      } else {
        Descend(/*depth=*/1, dim + 1, probability);
      }
    }
    conditions_.pop_back();
  }

  BestSet& best() { return best_; }
  const BruteForceStats& stats() const { return stats_; }

 private:
  // Scores a k-cube whose range fractions multiply to `probability`.
  void ScoreLeaf(size_t count, double probability) {
    ++stats_.cubes_evaluated;
    const double sparsity = objective_.Sparsity(
        count, shared_.options.target_dim, probability);
    if (count > 0 && best_.WouldAccept(sparsity)) {
      ScoredProjection scored;
      scored.projection =
          Projection::FromConditions(grid_.num_dims(), conditions_);
      scored.count = count;
      scored.sparsity = sparsity;
      best_.Offer(scored);
    }
  }

  // Polls the token every 1024 visited nodes; in between, reads the latch
  // another worker may have set.
  bool ShouldStop() const {
    return (stats_.nodes_visited & 1023u) == 0 ? shared_.poller.ShouldStop()
                                               : shared_.poller.stopped();
  }

  // The bitset of the current partial cube at `depth` conditions.
  const DynamicBitset& CurrentBits(size_t depth) const {
    return depth == 1 ? *root_bits_ : level_bits_[depth - 2];
  }

  // Extends the partial cube (depth >= 1 conditions chosen) with all valid
  // dimensions > the last chosen one. Returns false when aborted.
  bool Descend(size_t depth, size_t min_dim, double probability) {
    const size_t k = shared_.options.target_dim;
    const size_t d = grid_.num_dims();
    const bool leaf_level = (depth + 1 == k);
    const size_t max_dim = d - (k - depth - 1);
    for (size_t dim = min_dim; dim < max_dim; ++dim) {
      for (uint32_t cell = 0; cell < grid_.phi(); ++cell) {
        ++stats_.nodes_visited;
        if (ShouldStop()) return false;
        const DynamicBitset& members = grid_.RangeBits(dim, cell);
        const DynamicBitset& current = CurrentBits(depth);
        const double next_probability =
            probability * grid_.RangeFraction(dim, cell);
        conditions_.push_back({static_cast<uint32_t>(dim), cell});
        if (leaf_level) {
          ScoreLeaf(members.AndCount(current), next_probability);
        } else {
          // Fused intersect+count: AndCountInto hands back the new
          // cardinality, so the empty-subtree prune needs no second pass.
          DynamicBitset& next = level_bits_[depth - 1];
          next = current;
          const size_t next_count = next.AndCountInto(members);
          if (next_count == 0) {
            // Every extension of an empty cube is empty and unreportable.
            ++stats_.subtrees_pruned;
          } else if (!Descend(depth + 1, dim + 1, next_probability)) {
            conditions_.pop_back();
            return false;
          }
        }
        conditions_.pop_back();
      }
    }
    return true;
  }

  const SparsityObjective& objective_;
  const GridModel& grid_;
  Shared& shared_;
  BruteForceStats stats_;
  BestSet best_;
  std::vector<DimRange> conditions_;
  const DynamicBitset* root_bits_ = nullptr;  ///< the root range's bitmap
  std::vector<DynamicBitset> level_bits_;     ///< prefixes of 2..k-1 conditions
};

}  // namespace

BruteForceResult BruteForceSearch(const SparsityObjective& objective,
                                  const BruteForceOptions& options) {
  HIDO_CHECK(options.target_dim >= 1);
  HIDO_CHECK_MSG(options.target_dim <= objective.grid().num_dims(),
                 "target_dim %zu exceeds dimensionality %zu",
                 options.target_dim, objective.grid().num_dims());
  HIDO_CHECK(options.num_projections >= 1);

  const obs::TraceSpan span("brute_force");
  const GridModel& grid = objective.grid();
  const size_t phi = grid.phi();
  // Root tasks: the lowest condition of a k-cube can only use dimensions
  // that leave k-1 higher ones available.
  const size_t root_dims = grid.num_dims() - (options.target_dim - 1);
  const size_t num_roots = root_dims * phi;
  // One Worker is allocated per thread, so clamp the request to what
  // ParallelFor can actually deploy (guards against oversized values such
  // as a -1 cast to size_t at a call site).
  const size_t num_threads =
      std::max<size_t>(1, std::min({options.num_threads, num_roots,
                                    ThreadPool::Shared().num_workers() + 1}));

  Shared shared(options);
  std::vector<Worker> workers;
  workers.reserve(num_threads);
  for (size_t w = 0; w < num_threads; ++w) {
    workers.emplace_back(objective, shared);
  }

  ParallelFor(num_roots, num_threads, [&](size_t task, size_t worker) {
    workers[worker].ProcessRoot(task / phi,
                                static_cast<uint32_t>(task % phi));
  });

  BruteForceResult result;
  BestSet best(options.num_projections);
  for (Worker& worker : workers) {
    for (const ScoredProjection& scored : worker.best().Sorted()) {
      best.Offer(scored);
    }
    result.stats.cubes_evaluated += worker.stats().cubes_evaluated;
    result.stats.nodes_visited += worker.stats().nodes_visited;
    result.stats.subtrees_pruned += worker.stats().subtrees_pruned;
  }
  result.stats.completed = !shared.poller.stopped();
  result.stats.stop_cause = shared.poller.cause();
  result.stats.seconds = shared.watch.ElapsedSeconds();
  result.best = best.Sorted();

  // Published once at aggregation. All brute.* totals are deterministic on
  // complete runs at any thread count.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("brute.runs").Add(1);
  registry.GetCounter("brute.cubes_evaluated")
      .Add(result.stats.cubes_evaluated);
  registry.GetCounter("brute.nodes_visited").Add(result.stats.nodes_visited);
  registry.GetCounter("brute.subtrees_pruned")
      .Add(result.stats.subtrees_pruned);
  return result;
}

double BruteForceSearchSpace(size_t d, size_t k, size_t phi) {
  HIDO_CHECK(k >= 1 && k <= d);
  double combos = 1.0;
  for (size_t i = 0; i < k; ++i) {
    combos *= static_cast<double>(d - i) / static_cast<double>(i + 1);
  }
  return combos * std::pow(static_cast<double>(phi),
                           static_cast<double>(k));
}

}  // namespace hido
