#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "common/macros.h"

namespace hido {
namespace obs {

namespace {

// Each thread pins one shard for its lifetime (round-robin assignment), so
// concurrent Add calls from different pool workers usually land on
// different cache lines.
size_t ThisThreadShard() {
  static std::atomic<size_t> next_shard{0};
  thread_local const size_t shard =
      next_shard.fetch_add(1, std::memory_order_relaxed) % kCounterShards;
  return shard;
}

}  // namespace

void Counter::Add(uint64_t delta) {
  shards_[ThisThreadShard()].value.fetch_add(delta,
                                             std::memory_order_relaxed);
}

uint64_t Counter::Value() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::Reset() {
  for (Shard& shard : shards_) {
    shard.value.store(0, std::memory_order_relaxed);
  }
}

void Gauge::Set(int64_t value) {
  value_.store(value, std::memory_order_relaxed);
}

int64_t Gauge::Value() const {
  return value_.load(std::memory_order_relaxed);
}

void Gauge::Reset() { value_.store(0, std::memory_order_relaxed); }

Histogram::Histogram(std::vector<double> upper_bounds)
    : upper_bounds_(std::move(upper_bounds)),
      buckets_(std::make_unique<std::atomic<uint64_t>[]>(
          upper_bounds_.size() + 1)) {
  HIDO_CHECK_MSG(!upper_bounds_.empty(),
                 "histogram needs at least one bucket bound");
  for (size_t i = 0; i < upper_bounds_.size(); ++i) {
    HIDO_CHECK_MSG(std::isfinite(upper_bounds_[i]),
                   "histogram bounds must be finite");
    HIDO_CHECK_MSG(i == 0 || upper_bounds_[i - 1] < upper_bounds_[i],
                   "histogram bounds must be strictly increasing");
  }
  for (size_t i = 0; i <= upper_bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::Observe(double value) {
  const size_t bucket =
      static_cast<size_t>(std::lower_bound(upper_bounds_.begin(),
                                           upper_bounds_.end(), value) -
                          upper_bounds_.begin());
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

Histogram::Snapshot Histogram::TakeSnapshot() const {
  Snapshot snapshot;
  snapshot.upper_bounds = upper_bounds_;
  snapshot.counts.resize(upper_bounds_.size() + 1);
  for (size_t i = 0; i <= upper_bounds_.size(); ++i) {
    snapshot.counts[i] = buckets_[i].load(std::memory_order_relaxed);
    snapshot.total_count += snapshot.counts[i];
  }
  snapshot.sum = sum_.load(std::memory_order_relaxed);
  return snapshot;
}

void Histogram::Reset() {
  for (size_t i = 0; i <= upper_bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  sum_.store(0.0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked-on-purpose process singleton: instruments must stay valid for
  // the lifetime of every thread that cached a reference.
  static MetricsRegistry* const registry =
      new MetricsRegistry();  // hido-lint: allow(no-naked-new)
  return *registry;
}

void MetricsRegistry::CheckNameFree(const std::string& name,
                                    const char* kind) const {
  HIDO_CHECK_MSG(IsValidMetricName(name), "bad metric name '%s'",
                 name.c_str());
  const bool taken = counters_.count(name) + gauges_.count(name) +
                         histograms_.count(name) >
                     0;
  HIDO_CHECK_MSG(!taken, "metric '%s' already registered as another kind "
                 "(requested %s)",
                 name.c_str(), kind);
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    CheckNameFree(name, "counter");
    it = counters_.emplace(name, std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    CheckNameFree(name, "gauge");
    it = gauges_.emplace(name, std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::GetHistogram(
    const std::string& name, const std::vector<double>& upper_bounds) {
  MutexLock lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    CheckNameFree(name, "histogram");
    it = histograms_
             .emplace(name, std::make_unique<Histogram>(upper_bounds))
             .first;
  } else {
    HIDO_CHECK_MSG(it->second->TakeSnapshot().upper_bounds == upper_bounds,
                   "histogram '%s' re-registered with different bounds",
                   name.c_str());
  }
  return *it->second;
}

MetricsSnapshot MetricsRegistry::TakeSnapshot() const {
  MutexLock lock(mu_);
  MetricsSnapshot snapshot;
  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.push_back({name, counter->Value()});
  }
  snapshot.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.push_back({name, gauge->Value()});
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    snapshot.histograms.push_back({name, histogram->TakeSnapshot()});
  }
  return snapshot;  // std::map iteration order == sorted by name
}

void MetricsRegistry::ResetForTest() {
  MutexLock lock(mu_);
  for (const auto& [name, counter] : counters_) counter->Reset();
  for (const auto& [name, gauge] : gauges_) gauge->Reset();
  for (const auto& [name, histogram] : histograms_) histogram->Reset();
}

double HistogramQuantile(const Histogram::Snapshot& snapshot, double q) {
  if (snapshot.total_count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double target = q * static_cast<double>(snapshot.total_count);
  double cumulative = 0.0;
  for (size_t i = 0; i < snapshot.counts.size(); ++i) {
    const double in_bucket = static_cast<double>(snapshot.counts[i]);
    if (in_bucket == 0.0) continue;
    if (cumulative + in_bucket >= target) {
      if (i >= snapshot.upper_bounds.size()) {
        // Overflow bucket has no finite upper edge; report the last bound.
        return snapshot.upper_bounds.back();
      }
      const double lower = i == 0 ? 0.0 : snapshot.upper_bounds[i - 1];
      const double upper = snapshot.upper_bounds[i];
      const double fraction = (target - cumulative) / in_bucket;
      return lower + (upper - lower) * fraction;
    }
    cumulative += in_bucket;
  }
  return snapshot.upper_bounds.back();
}

bool IsValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  bool segment_start = true;
  for (const char c : name) {
    if (c == '.') {
      if (segment_start) return false;  // empty segment
      segment_start = true;
      continue;
    }
    if (segment_start) {
      if (c < 'a' || c > 'z') return false;  // segments start with a letter
      segment_start = false;
      continue;
    }
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_';
    if (!ok) return false;
  }
  return !segment_start;  // no trailing dot
}

}  // namespace obs
}  // namespace hido
