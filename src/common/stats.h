#ifndef HIDO_COMMON_STATS_H_
#define HIDO_COMMON_STATS_H_

// Statistical kernel: running moments, the standard normal distribution, and
// the binomial moments underlying the paper's sparsity coefficient.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hido {

/// Numerically stable running mean / variance accumulator (Welford).
class RunningMoments {
 public:
  /// Folds one observation into the accumulator.
  void Add(double x);

  size_t count() const { return count_; }  ///< samples seen
  /// Mean of the observations so far; 0 when empty.
  double mean() const { return mean_; }
  /// Unbiased sample variance; 0 when fewer than two observations.
  double variance() const;
  /// sqrt(variance()).
  double stddev() const;
  double min() const { return min_; }  ///< smallest sample
  double max() const { return max_; }  ///< largest sample

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Standard normal cumulative distribution function Phi(x).
double NormalCdf(double x);

/// Moments of Binomial(n, p): the model behind Equation 1 of the paper.
/// A k-dimensional cube under independence holds Binomial(N, f^k) points.
struct BinomialMoments {
  double mean;    ///< n * p
  double stddev;  ///< sqrt(n * p * (1 - p))
};

/// Returns the mean and standard deviation of Binomial(n, p).
/// Preconditions: n >= 0, 0 <= p <= 1.
BinomialMoments BinomialMeanStddev(double n, double p);

/// log(Gamma(x)) for x > 0 (Lanczos approximation, ~15 significant digits).
double LogGamma(double x);

/// Exact lower tail P[Binomial(n, p) <= k] by pmf summation (O(k+1) terms,
/// numerically stable via incremental ratios). Preconditions: k <= n,
/// 0 <= p <= 1. This is the exact version of the paper's §1.3 significance
/// for sparse cubes — the normal approximation behind Equation 1 is poor
/// exactly where it matters most (expected counts of a few points).
double BinomialLowerTail(uint64_t n, double p, uint64_t k);

/// Quantile (`q` in [0,1]) of `sorted_values`, which must be ascending and
/// non-empty. Uses the inclusive linear-interpolation definition (type 7).
double QuantileSorted(const std::vector<double>& sorted_values, double q);

/// Mean of `values`; 0 for an empty vector.
double Mean(const std::vector<double>& values);

/// Pearson correlation of two equal-length vectors; 0 when undefined
/// (size < 2 or zero variance). Precondition: xs.size() == ys.size().
double PearsonCorrelation(const std::vector<double>& xs,
                          const std::vector<double>& ys);

}  // namespace hido

#endif  // HIDO_COMMON_STATS_H_
