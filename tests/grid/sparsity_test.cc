#include "grid/sparsity.h"

#include <cmath>

#include <gtest/gtest.h>

namespace hido {
namespace {

TEST(SparsityModelTest, ExpectedCountMatchesEquationOne) {
  const SparsityModel model(10000, 10);
  EXPECT_DOUBLE_EQ(model.ExpectedCount(1), 1000.0);
  EXPECT_DOUBLE_EQ(model.ExpectedCount(2), 100.0);
  EXPECT_DOUBLE_EQ(model.ExpectedCount(4), 1.0);
}

TEST(SparsityModelTest, CoefficientSigns) {
  const SparsityModel model(10000, 10);
  // At the expected count the coefficient is exactly 0.
  EXPECT_NEAR(model.Coefficient(100, 2), 0.0, 1e-12);
  // Below expectation: negative; above: positive.
  EXPECT_LT(model.Coefficient(10, 2), 0.0);
  EXPECT_GT(model.Coefficient(500, 2), 0.0);
}

TEST(SparsityModelTest, CoefficientIsZScore) {
  const SparsityModel model(10000, 10);
  const double expected = model.ExpectedCount(2);
  const double fk = 0.01;  // f^k at phi = 10, k = 2
  const double stddev = std::sqrt(10000.0 * fk * (1.0 - fk));
  EXPECT_NEAR(model.Coefficient(42, 2), (42.0 - expected) / stddev, 1e-12);
}

TEST(SparsityModelTest, EmptyCubeFormula) {
  // S_empty(k) = -sqrt(N / (phi^k - 1)) per section 2.4.
  const SparsityModel model(10000, 10);
  EXPECT_NEAR(model.EmptyCubeCoefficient(3),
              -std::sqrt(10000.0 / (1000.0 - 1.0)), 1e-12);
}

TEST(SparsityModelTest, EmptyCubeMatchesCoefficientOfZero) {
  const SparsityModel model(5000, 8);
  for (size_t k = 1; k <= 4; ++k) {
    EXPECT_NEAR(model.EmptyCubeCoefficient(k), model.Coefficient(0, k),
                1e-9);
  }
}

TEST(SparsityModelTest, MoreDimensionsMakeEmptyLessSurprising) {
  // As k grows, phi^k grows, so an empty cube drifts toward S = 0: high
  // dimensionality makes emptiness unremarkable (the paper's core point).
  const SparsityModel model(10000, 10);
  double prev = model.EmptyCubeCoefficient(1);
  for (size_t k = 2; k <= 6; ++k) {
    const double s = model.EmptyCubeCoefficient(k);
    EXPECT_GT(s, prev);
    EXPECT_LT(s, 0.0);
    prev = s;
  }
}

TEST(SparsityModelTest, CoefficientWithProbabilityGeneralizes) {
  const SparsityModel model(10000, 10);
  // With probability f^k it reduces to Coefficient.
  EXPECT_NEAR(model.CoefficientWithProbability(42, 0.01),
              model.Coefficient(42, 2), 1e-12);
}

TEST(SparsityModelDeathTest, InvalidArguments) {
  EXPECT_DEATH(SparsityModel(0, 10), "num_points");
  EXPECT_DEATH(SparsityModel(10, 1), "phi");
  const SparsityModel model(10, 2);
  EXPECT_DEATH(model.ExpectedCount(0), "k >= 1");
  EXPECT_DEATH(model.CoefficientWithProbability(1, 0.0), "probability");
  EXPECT_DEATH(model.CoefficientWithProbability(1, 1.0), "probability");
}

TEST(SparsityModelTest, ExactSignificanceProperties) {
  const SparsityModel model(1000, 5);
  // Exact tail in [0,1], monotone in count.
  double prev = 0.0;
  for (size_t count = 0; count <= 60; count += 5) {
    const double sig = model.ExactSignificance(count, 2);
    EXPECT_GE(sig, prev - 1e-15);
    EXPECT_LE(sig, 1.0);
    prev = sig;
  }
  // At the expected count (1000/25 = 40), the tail is ~0.5.
  EXPECT_NEAR(model.ExactSignificance(40, 2), 0.5, 0.06);
  // For an empty cube the exact tail equals (1 - f^k)^N.
  EXPECT_NEAR(model.ExactSignificance(0, 2), std::pow(0.96, 1000), 1e-18);
}

TEST(RecommendProjectionDimTest, PaperFormula) {
  // k* = floor(log_phi(N / s^2 + 1)).
  // N = 10000, phi = 10, s = -3: log10(10000/9 + 1) = log10(1112.1) = 3.04
  EXPECT_EQ(RecommendProjectionDim(10000, 10, -3.0), 3u);
  // N = 1000: log10(112.1) = 2.05 -> 2.
  EXPECT_EQ(RecommendProjectionDim(1000, 10, -3.0), 2u);
  // N = 100: log10(12.1) = 1.08 -> 1.
  EXPECT_EQ(RecommendProjectionDim(100, 10, -3.0), 1u);
}

TEST(RecommendProjectionDimTest, NeverBelowOne) {
  EXPECT_EQ(RecommendProjectionDim(5, 10, -3.0), 1u);
  EXPECT_EQ(RecommendProjectionDim(1, 10, -0.5), 1u);
}

TEST(RecommendProjectionDimTest, GrowsWithNAndShrinksWithPhi) {
  EXPECT_LE(RecommendProjectionDim(1000, 10, -3.0),
            RecommendProjectionDim(100000, 10, -3.0));
  EXPECT_GE(RecommendProjectionDim(100000, 5, -3.0),
            RecommendProjectionDim(100000, 20, -3.0));
}

TEST(RecommendProjectionDimTest, EmptyCubeAtKStarIsAtLeastAsNegativeAsS) {
  // Consistency: at the recommended k*, an empty cube's sparsity is <= s
  // ("the rounding makes the effective coefficient slightly more negative").
  for (size_t n : {500u, 5000u, 50000u}) {
    for (size_t phi : {5u, 10u}) {
      const double s = -3.0;
      const size_t k = RecommendProjectionDim(n, phi, s);
      const SparsityModel model(n, phi);
      EXPECT_LE(model.EmptyCubeCoefficient(k), s + 1e-9)
          << "n=" << n << " phi=" << phi << " k=" << k;
    }
  }
}

TEST(RecommendProjectionDimDeathTest, PositiveSAborts) {
  EXPECT_DEATH(RecommendProjectionDim(100, 10, 1.0), "negative");
}

}  // namespace
}  // namespace hido
