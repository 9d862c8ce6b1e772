#include "common/stats.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace hido {
namespace {

TEST(RunningMomentsTest, EmptyAccumulator) {
  RunningMoments m;
  EXPECT_EQ(m.count(), 0u);
  EXPECT_EQ(m.mean(), 0.0);
  EXPECT_EQ(m.variance(), 0.0);
  EXPECT_EQ(m.stddev(), 0.0);
}

TEST(RunningMomentsTest, SingleValue) {
  RunningMoments m;
  m.Add(42.0);
  EXPECT_EQ(m.count(), 1u);
  EXPECT_EQ(m.mean(), 42.0);
  EXPECT_EQ(m.variance(), 0.0);
  EXPECT_EQ(m.min(), 42.0);
  EXPECT_EQ(m.max(), 42.0);
}

TEST(RunningMomentsTest, KnownSequence) {
  RunningMoments m;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) m.Add(v);
  EXPECT_DOUBLE_EQ(m.mean(), 5.0);
  // Sample variance of the classic example: 32/7.
  EXPECT_NEAR(m.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(m.min(), 2.0);
  EXPECT_EQ(m.max(), 9.0);
}

TEST(RunningMomentsTest, StableUnderLargeOffset) {
  // Welford should not catastrophically cancel with a large common offset.
  RunningMoments m;
  const double offset = 1e9;
  for (double v : {1.0, 2.0, 3.0}) m.Add(offset + v);
  EXPECT_NEAR(m.variance(), 1.0, 1e-6);
}

TEST(NormalCdfTest, KnownValues) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(NormalCdf(1.0), 0.8413447460685429, 1e-10);
  EXPECT_NEAR(NormalCdf(-1.0), 1.0 - 0.8413447460685429, 1e-10);
  EXPECT_NEAR(NormalCdf(-3.0), 0.0013498980316301, 1e-10);
  EXPECT_NEAR(NormalCdf(3.0), 0.9986501019683699, 1e-10);
}

TEST(NormalCdfTest, Monotone) {
  double prev = 0.0;
  for (double x = -6.0; x <= 6.0; x += 0.1) {
    const double p = NormalCdf(x);
    EXPECT_GE(p, prev);
    prev = p;
  }
}

TEST(BinomialMeanStddevTest, MatchesFormula) {
  const BinomialMoments m = BinomialMeanStddev(100.0, 0.25);
  EXPECT_DOUBLE_EQ(m.mean, 25.0);
  EXPECT_DOUBLE_EQ(m.stddev, std::sqrt(100.0 * 0.25 * 0.75));
}

TEST(BinomialMeanStddevTest, DegenerateProbabilities) {
  EXPECT_DOUBLE_EQ(BinomialMeanStddev(50.0, 0.0).stddev, 0.0);
  EXPECT_DOUBLE_EQ(BinomialMeanStddev(50.0, 1.0).stddev, 0.0);
  EXPECT_DOUBLE_EQ(BinomialMeanStddev(50.0, 1.0).mean, 50.0);
}

TEST(LogGammaTest, KnownValues) {
  // Gamma(1) = 1, Gamma(2) = 1, Gamma(5) = 24, Gamma(0.5) = sqrt(pi).
  EXPECT_NEAR(LogGamma(1.0), 0.0, 1e-12);
  EXPECT_NEAR(LogGamma(2.0), 0.0, 1e-12);
  EXPECT_NEAR(LogGamma(5.0), std::log(24.0), 1e-10);
  EXPECT_NEAR(LogGamma(0.5), 0.5 * std::log(M_PI), 1e-10);
  // Factorial consistency up the range.
  EXPECT_NEAR(LogGamma(21.0), std::lgamma(21.0), 1e-8);
  EXPECT_NEAR(LogGamma(171.5), std::lgamma(171.5), 1e-6);
}

TEST(BinomialLowerTailTest, SmallExactValues) {
  // Binomial(3, 0.5): P[<=1] = (1 + 3)/8.
  EXPECT_NEAR(BinomialLowerTail(3, 0.5, 1), 0.5, 1e-12);
  // Full range sums to 1.
  EXPECT_NEAR(BinomialLowerTail(3, 0.5, 3), 1.0, 1e-12);
  // Degenerate probabilities.
  EXPECT_DOUBLE_EQ(BinomialLowerTail(5, 0.0, 0), 1.0);
  EXPECT_DOUBLE_EQ(BinomialLowerTail(5, 1.0, 4), 0.0);
  EXPECT_DOUBLE_EQ(BinomialLowerTail(5, 1.0, 5), 1.0);
}

TEST(BinomialLowerTailTest, MonotoneInK) {
  double prev = 0.0;
  for (uint64_t k = 0; k <= 40; ++k) {
    const double tail = BinomialLowerTail(40, 0.3, k);
    EXPECT_GE(tail, prev - 1e-15);
    prev = tail;
  }
  EXPECT_NEAR(prev, 1.0, 1e-12);
}

TEST(BinomialLowerTailTest, ConvergesToNormalApproximation) {
  // For large n*p the exact tail approaches Phi((k + .5 - np)/sd).
  const uint64_t n = 100000;
  const double p = 0.01;  // np = 1000
  const uint64_t k = 950;
  const BinomialMoments m = BinomialMeanStddev(static_cast<double>(n), p);
  const double normal =
      NormalCdf((static_cast<double>(k) + 0.5 - m.mean) / m.stddev);
  EXPECT_NEAR(BinomialLowerTail(n, p, k), normal, 5e-3);
}

TEST(BinomialLowerTailTest, UnderflowFallbackIsFinite) {
  // np so large that pmf(0) underflows: the continuity-corrected normal
  // branch must keep the result sane.
  const double tail = BinomialLowerTail(1u << 20, 0.5, (1u << 19));
  EXPECT_GT(tail, 0.49);
  EXPECT_LT(tail, 0.52);
}

TEST(BinomialLowerTailTest, SparseCubeRegimeBeatsNormalApprox) {
  // The sparsity use case: N=1000 points, cell probability 1/25, a cube
  // holding 1 point. Exact tail P[X<=1] = 27.4e-18... compute directly:
  const double exact = BinomialLowerTail(1000, 0.04, 1);
  const double direct = std::pow(0.96, 1000) +
                        1000.0 * 0.04 * std::pow(0.96, 999);
  EXPECT_NEAR(exact, direct, direct * 1e-9);
  // The normal approximation is off by orders of magnitude here.
  const BinomialMoments m = BinomialMeanStddev(1000.0, 0.04);
  const double normal = NormalCdf((1.0 - m.mean) / m.stddev);
  EXPECT_GT(normal / exact, 100.0);
}

TEST(QuantileSortedTest, SingleElement) {
  EXPECT_EQ(QuantileSorted({5.0}, 0.0), 5.0);
  EXPECT_EQ(QuantileSorted({5.0}, 1.0), 5.0);
}

TEST(QuantileSortedTest, EndpointsAndMedian) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_EQ(QuantileSorted(v, 0.0), 1.0);
  EXPECT_EQ(QuantileSorted(v, 1.0), 4.0);
  EXPECT_NEAR(QuantileSorted(v, 0.5), 2.5, 1e-12);
}

TEST(QuantileSortedTest, LinearInterpolation) {
  const std::vector<double> v = {0.0, 10.0};
  EXPECT_NEAR(QuantileSorted(v, 0.25), 2.5, 1e-12);
  EXPECT_NEAR(QuantileSorted(v, 0.75), 7.5, 1e-12);
}

TEST(MeanStddevTest, BasicVectors) {
  EXPECT_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(PearsonCorrelationTest, PerfectAndZero) {
  const std::vector<double> x = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> y_pos = {2.0, 4.0, 6.0, 8.0};
  const std::vector<double> y_neg = {8.0, 6.0, 4.0, 2.0};
  EXPECT_NEAR(PearsonCorrelation(x, y_pos), 1.0, 1e-12);
  EXPECT_NEAR(PearsonCorrelation(x, y_neg), -1.0, 1e-12);
  EXPECT_EQ(PearsonCorrelation(x, {1.0, 1.0, 1.0, 1.0}), 0.0);
  EXPECT_EQ(PearsonCorrelation({}, {}), 0.0);
}

TEST(PearsonCorrelationTest, RecoverCorrelationOfGeneratedData) {
  Rng rng(77);
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 20000; ++i) {
    const double a = rng.Normal();
    x.push_back(a);
    y.push_back(0.8 * a + 0.6 * rng.Normal());  // corr = 0.8
  }
  EXPECT_NEAR(PearsonCorrelation(x, y), 0.8, 0.02);
}

// Property sweep: quantile at i/n of 0..n-1 interpolates exactly.
class QuantileProperty : public ::testing::TestWithParam<int> {};

TEST_P(QuantileProperty, MatchesClosedForm) {
  const int n = GetParam();
  std::vector<double> v(n);
  for (int i = 0; i < n; ++i) v[i] = static_cast<double>(i);
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    EXPECT_NEAR(QuantileSorted(v, q), q * (n - 1), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, QuantileProperty,
                         ::testing::Values(2, 3, 10, 101));

}  // namespace
}  // namespace hido
