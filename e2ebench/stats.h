#ifndef HIDO_E2EBENCH_STATS_H_
#define HIDO_E2EBENCH_STATS_H_

// Statistics and reporting helpers shared by the benchmark binary and its
// tests: order statistics, the tail-percentile rule, open-loop (due-time)
// latency accounting, the metric-name grammar, and the JSON result line.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

/// Nearest-rank percentile `p` in (0, 100] of `values` (unsorted; copied).
/// Returns 0 for an empty sample.
double Percentile(std::vector<double> values, double p);

/// Median (nearest-rank p50) of `values`; 0 for an empty sample.
double Median(const std::vector<double>& values);

/// The tail a sample supports: the highest of p50, p90, p99, p99.9,
/// p99.99 that leaves at least `kTailSamples` samples beyond it under the
/// nearest-rank rule, its value, and the sample count. `percentile` is 0
/// when even p50 is unsupported (fewer than 20 samples).
struct Tail {
  double percentile = 0.0;  ///< e.g. 99.0
  double value = 0.0;       ///< the sample at that percentile
  size_t count = 0;         ///< samples the tail was taken from
};
inline constexpr size_t kTailSamples = 10;
Tail TailPercentile(const std::vector<double>& values);

/// Samples strictly beyond nearest-rank percentile `p` among `n` samples.
size_t SamplesBeyond(size_t n, double p);

/// Open-loop accounting for one phase of a fixed-rate schedule: request i
/// is due at start + i / rate. A request's latency runs from when it was
/// due, not from when it was sent, so a stall in the generator or the
/// server is charged to every request queued behind it.
class OpenLoopLog {
 public:
  /// `late_threshold` is how far past due a send counts as late.
  OpenLoopLog(double start, double rate, double late_threshold);

  /// Due time of request `index`.
  double DueAt(uint64_t index) const;
  /// Records that request `index` left the client at `sent_at`.
  void Sent(uint64_t index, double sent_at);
  /// Records the reply to request `index` at `received_at`.
  void Answered(uint64_t index, double received_at);

  /// Latencies in reply order.
  const std::vector<double>& latencies() const { return latencies_; }
  uint64_t sent() const { return sent_; }  ///< requests sent
  /// Share of sent requests that left more than the threshold late.
  double LateFraction() const;
  /// Percentile `p` of each consecutive slice of `per_window` scheduled
  /// requests, then the median over the slices whose sample supports `p`
  /// with kTailSamples beyond it; 0 when none does. A stall of the whole
  /// host then moves one slice, not the reported figure.
  double WindowedPercentile(double p, uint64_t per_window) const;

 private:
  double start_;
  double rate_;
  double late_threshold_;
  uint64_t sent_ = 0;
  uint64_t late_ = 0;
  std::vector<double> latencies_;
  std::vector<uint64_t> indices_;  // schedule index of each latency
};

/// True when `name` is a valid metric name: 1 to 64 characters from
/// [A-Za-z0-9_.-], starting with a letter or a digit.
bool IsValidMetricName(std::string_view name);

/// True when `unit` is a valid unit: 1 to 16 characters from
/// [A-Za-z0-9_/%.-].
bool IsValidUnit(std::string_view unit);

/// An ordered set of named metrics with units. Names and units are checked
/// against the grammar above; a bad or repeated name is a programmer error
/// reported by `error()`.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Empty when every Add was valid, else the first problem.
  const std::string& error() const { return error_; }
  /// `{"name": {"value": v, "unit": "u"}, ...}`.
  std::string ToJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
  std::string error_;
};

/// Full-precision JSON number (17 significant digits; non-finite -> 0).
std::string JsonNumber(double value);

/// JSON string literal with the necessary escapes.
std::string JsonString(std::string_view text);

/// 64-bit FNV-1a over `bytes`, continuing from `seed`.
uint64_t Fnv1a(std::string_view bytes, uint64_t seed = 1469598103934665603ULL);

/// Lower-case hex rendering of a digest.
std::string HexDigest(uint64_t digest);

}  // namespace e2e

#endif  // HIDO_E2EBENCH_STATS_H_
