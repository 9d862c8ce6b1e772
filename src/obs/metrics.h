#ifndef HIDO_OBS_METRICS_H_
#define HIDO_OBS_METRICS_H_

// The process-wide metrics registry: named counters, gauges, and
// fixed-bucket histograms.
//
// Design constraints (see DESIGN.md "Observability"):
//   * Hot-path cost of Counter::Add is one relaxed atomic add on a
//     thread-local shard (no locks, no cache-line ping-pong between pool
//     workers updating the same counter).
//   * Instruments are registered once and live for the process; GetCounter
//     / GetGauge / GetHistogram return stable references that callers may
//     cache across calls (the registry never removes an instrument).
//   * Snapshot() aggregates the shards and returns every instrument sorted
//     by name, so two snapshots of identical values serialize identically.
//   * Names follow `<subsystem>.<noun>[_<unit>]` (lowercase, dots between
//     subsystem levels, snake_case leaves — see CONTRIBUTING.md); a
//     malformed name is a programmer error and aborts.
//
// Counters are *monotonic totals* (events since process start or the last
// ResetForTest); gauges are last-writer-wins levels; histograms bucket
// double observations against a fixed sorted bound list plus an implicit
// +inf overflow bucket.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace hido {
namespace obs {

/// Number of cache-line-padded shards per counter. Updates pick a shard by
/// thread, reads sum all shards; 16 covers the pool sizes the searches use.
inline constexpr size_t kCounterShards = 16;

/// Monotonic event counter. Add is wait-free (one relaxed fetch_add on the
/// calling thread's shard); Value/Reset are for snapshot/test paths.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  /// Adds `delta` to the calling thread's shard (wait-free).
  void Add(uint64_t delta = 1);
  uint64_t Value() const;  ///< sum over all shards (snapshot path)
  void Reset();            ///< zeroes every shard (test path)

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };
  Shard shards_[kCounterShards];
};

/// Last-writer-wins level (queue depths, worker counts, high-water marks).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t value);  ///< last-writer-wins store
  int64_t Value() const;  ///< current level
  void Reset();           ///< back to zero (test path)

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket histogram of double observations. Bucket i counts values
/// v <= upper_bounds[i] (and > upper_bounds[i-1]); one implicit overflow
/// bucket catches everything above the last bound. Observe is two relaxed
/// atomic adds (bucket + sum).
class Histogram {
 public:
  /// `upper_bounds` must be non-empty, finite, and strictly increasing.
  explicit Histogram(std::vector<double> upper_bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Records one observation: two relaxed atomic adds (bucket + sum).
  void Observe(double value);

  /// Aggregated bucket contents at one instant.
  struct Snapshot {
    std::vector<double> upper_bounds;  ///< the registered bounds
    std::vector<uint64_t> counts;  ///< upper_bounds.size() + 1 entries
    uint64_t total_count = 0;      ///< sum of counts
    /// Sum of observations. Exact (order-independent) for integer-valued
    /// observations below 2^53; concurrent fractional observations may
    /// differ in the last ulp between schedules.
    double sum = 0.0;
  };
  Snapshot TakeSnapshot() const;  ///< consistent-enough quiesced read
  void Reset();                   ///< zeroes buckets and sum (test path)

 private:
  const std::vector<double> upper_bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;
  std::atomic<double> sum_{0.0};
};

/// One aggregated counter in a registry snapshot.
struct CounterSample {
  std::string name;     ///< registered instrument name
  uint64_t value = 0;   ///< shard-summed total
};
/// One aggregated gauge in a registry snapshot.
struct GaugeSample {
  std::string name;     ///< registered instrument name
  int64_t value = 0;    ///< level at capture
};
/// One aggregated histogram in a registry snapshot.
struct HistogramSample {
  std::string name;              ///< registered instrument name
  Histogram::Snapshot snapshot;  ///< buckets at capture
};

/// Everything the registry holds at one instant, each section sorted by
/// instrument name.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;      ///< sorted by name
  std::vector<GaugeSample> gauges;          ///< sorted by name
  std::vector<HistogramSample> histograms;  ///< sorted by name
};

/// The registry. All methods are thread-safe; the returned references stay
/// valid for the registry's lifetime.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every instrumentation site publishes to.
  static MetricsRegistry& Global();

  /// Finds or creates the named instrument. A name registered as one kind
  /// must not be requested as another; a histogram's bounds must match its
  /// first registration. Both are programmer errors (abort).
  Counter& GetCounter(const std::string& name) HIDO_LOCKS_EXCLUDED(mu_);
  /// See GetCounter; same contract for gauges.
  Gauge& GetGauge(const std::string& name) HIDO_LOCKS_EXCLUDED(mu_);
  /// See GetCounter; `upper_bounds` must equal the first registration's.
  Histogram& GetHistogram(const std::string& name,
                          const std::vector<double>& upper_bounds)
      HIDO_LOCKS_EXCLUDED(mu_);

  /// Aggregates every instrument, each section sorted by name.
  MetricsSnapshot TakeSnapshot() const HIDO_LOCKS_EXCLUDED(mu_);

  /// Zeroes every instrument's value but keeps the instruments themselves,
  /// so cached references stay valid. For tests and per-run isolation.
  void ResetForTest() HIDO_LOCKS_EXCLUDED(mu_);

 private:
  // Aborts on kind collisions between the three instrument namespaces.
  void CheckNameFree(const std::string& name, const char* kind) const
      HIDO_EXCLUSIVE_LOCKS_REQUIRED(mu_);

  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      HIDO_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ HIDO_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      HIDO_GUARDED_BY(mu_);
};

/// Estimated value at quantile `q` in [0, 1] (e.g. 0.5/0.99 for p50/p99)
/// by linear interpolation inside the bucket that crosses the target rank,
/// taking 0 as the first bucket's lower edge. Observations in the overflow
/// bucket report the last finite bound (a lower bound on the true value).
/// Returns 0 for an empty histogram.
double HistogramQuantile(const Histogram::Snapshot& snapshot, double q);

/// True when `name` follows the metric-naming convention: dot-separated
/// lowercase segments of [a-z0-9_], each starting with a letter.
bool IsValidMetricName(const std::string& name);

}  // namespace obs
}  // namespace hido

#endif  // HIDO_OBS_METRICS_H_
