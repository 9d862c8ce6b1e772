#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace e2e {

namespace {

// 1-based nearest rank of percentile p among n > 0 samples. The epsilon
// keeps p * n exact where decimal percentiles round up (99.9 * 10000).
size_t NearestRank(size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(rank, 1.0)), 1, n);
}

}  // namespace

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const size_t rank = NearestRank(values.size(), p);
  std::nth_element(values.begin(), values.begin() + static_cast<ptrdiff_t>(rank - 1),
                   values.end());
  return values[rank - 1];
}

double Median(const std::vector<double>& values) {
  return Percentile(values, 50.0);
}

size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - NearestRank(n, p);
}

Tail TailPercentile(const std::vector<double>& values) {
  Tail tail;
  tail.count = values.size();
  for (const double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    if (SamplesBeyond(values.size(), p) < kTailSamples) break;
    tail.percentile = p;
  }
  if (tail.percentile > 0.0) tail.value = Percentile(values, tail.percentile);
  return tail;
}

OpenLoopLog::OpenLoopLog(double start, double rate, double late_threshold)
    : start_(start), rate_(rate), late_threshold_(late_threshold) {}

double OpenLoopLog::DueAt(uint64_t index) const {
  return start_ + static_cast<double>(index) / rate_;
}

void OpenLoopLog::Sent(uint64_t index, double sent_at) {
  ++sent_;
  if (sent_at - DueAt(index) > late_threshold_) ++late_;
}

void OpenLoopLog::Answered(uint64_t index, double received_at) {
  latencies_.push_back(std::max(0.0, received_at - DueAt(index)));
  indices_.push_back(index);
}

double OpenLoopLog::LateFraction() const {
  return sent_ == 0 ? 0.0
                    : static_cast<double>(late_) / static_cast<double>(sent_);
}

double OpenLoopLog::WindowedPercentile(double p, uint64_t per_window) const {
  per_window = std::max<uint64_t>(1, per_window);
  std::vector<std::vector<double>> slices;
  for (size_t i = 0; i < latencies_.size(); ++i) {
    const size_t slice = static_cast<size_t>(indices_[i] / per_window);
    if (slice >= slices.size()) slices.resize(slice + 1);
    slices[slice].push_back(latencies_[i]);
  }
  std::vector<double> figures;
  for (const std::vector<double>& slice : slices) {
    if (SamplesBeyond(slice.size(), p) >= kTailSamples) {
      figures.push_back(Percentile(slice, p));
    }
  }
  return Median(figures);
}

namespace {

bool IsAlnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

}  // namespace

bool IsValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64 || !IsAlnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return IsAlnum(c) || c == '_' || c == '.' || c == '-';
  });
}

bool IsValidUnit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return IsAlnum(c) || c == '_' || c == '/' || c == '%' || c == '.' ||
           c == '-';
  });
}

void MetricSet::Add(const std::string& name, double value,
                    const std::string& unit) {
  if (error_.empty()) {
    if (!IsValidMetricName(name)) {
      error_ = "bad metric name '" + name + "'";
    } else if (!IsValidUnit(unit)) {
      error_ = "bad unit '" + unit + "' for " + name;
    } else if (!std::isfinite(value)) {
      error_ = "non-finite value for " + name;
    } else {
      for (const Entry& e : entries_) {
        if (e.name == name) error_ = "repeated metric name '" + name + "'";
      }
    }
  }
  entries_.push_back({name, value, unit});
}

std::string MetricSet::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(entries_[i].name) + ": {\"value\": " +
           JsonNumber(entries_[i].value) +
           ", \"unit\": " + JsonString(entries_[i].unit) + "}";
  }
  return out + "}";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonString(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

uint64_t Fnv1a(std::string_view bytes, uint64_t seed) {
  uint64_t h = seed;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string HexDigest(uint64_t digest) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

}  // namespace e2e
