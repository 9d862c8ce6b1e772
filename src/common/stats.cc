#include "common/stats.h"

#include <cmath>

#include "common/macros.h"

namespace hido {

void RunningMoments::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningMoments::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningMoments::stddev() const { return std::sqrt(variance()); }

double NormalCdf(double x) {
  // Phi(x) = erfc(-x / sqrt(2)) / 2; erfc avoids cancellation in the tails.
  return 0.5 * std::erfc(-x / std::sqrt(2.0));
}

BinomialMoments BinomialMeanStddev(double n, double p) {
  HIDO_CHECK(n >= 0.0);
  HIDO_CHECK(p >= 0.0 && p <= 1.0);
  BinomialMoments m;
  m.mean = n * p;
  m.stddev = std::sqrt(n * p * (1.0 - p));
  return m;
}

double BinomialLowerTail(uint64_t n, double p, uint64_t k) {
  HIDO_CHECK(k <= n);
  HIDO_CHECK(p >= 0.0 && p <= 1.0);
  if (p == 0.0) return 1.0;
  if (p == 1.0) return k == n ? 1.0 : 0.0;
  // Sum pmf(0..k) incrementally: pmf(i+1) = pmf(i) * (n-i)/(i+1) * p/(1-p),
  // seeded in log space to survive tiny pmf(0).
  const double log_pmf0 = static_cast<double>(n) * std::log1p(-p);
  if (log_pmf0 < -700.0) {
    // pmf(0) underflows double precision (np >> 700): the summation cannot
    // be seeded. There the normal approximation is excellent; use it with
    // continuity correction.
    const BinomialMoments m =
        BinomialMeanStddev(static_cast<double>(n), p);
    return NormalCdf((static_cast<double>(k) + 0.5 - m.mean) / m.stddev);
  }
  double pmf = std::exp(log_pmf0);
  double total = pmf;
  const double odds = p / (1.0 - p);
  for (uint64_t i = 0; i < k; ++i) {
    pmf *= static_cast<double>(n - i) / static_cast<double>(i + 1) * odds;
    total += pmf;
  }
  return std::min(1.0, total);
}

double QuantileSorted(const std::vector<double>& sorted_values, double q) {
  HIDO_CHECK(!sorted_values.empty());
  HIDO_CHECK(q >= 0.0 && q <= 1.0);
  const size_t n = sorted_values.size();
  if (n == 1) return sorted_values[0];
  const double pos = q * static_cast<double>(n - 1);
  const size_t lo = static_cast<size_t>(pos);
  if (lo + 1 >= n) return sorted_values[n - 1];
  const double frac = pos - static_cast<double>(lo);
  return sorted_values[lo] * (1.0 - frac) + sorted_values[lo + 1] * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double PearsonCorrelation(const std::vector<double>& xs,
                          const std::vector<double>& ys) {
  HIDO_CHECK(xs.size() == ys.size());
  const size_t n = xs.size();
  if (n < 2) return 0.0;
  const double mx = Mean(xs);
  const double my = Mean(ys);
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

}  // namespace hido
