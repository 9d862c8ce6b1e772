#ifndef HIDO_GRID_SPARSITY_H_
#define HIDO_GRID_SPARSITY_H_

// The sparsity coefficient (Equation 1 of the paper):
//
//   S(D) = (n(D) - N·f^k) / sqrt(N·f^k·(1 - f^k)),   f = 1/phi
//
// Under the null model of independent uniform attributes, the presence of a
// point in a k-dimensional cube is Bernoulli(f^k), so the count n(D) is
// approximately normal with mean N·f^k and the above standard deviation;
// S(D) is its z-score. Cubes with strongly negative S(D) hold far fewer
// points than randomness explains — the paper's definition of an abnormal
// projection.

#include <cstddef>

namespace hido {

/// Sparsity-coefficient calculator for a dataset of N points discretized
/// into phi ranges per attribute.
class SparsityModel {
 public:
  /// Preconditions: num_points >= 1, phi >= 2.
  SparsityModel(size_t num_points, size_t phi);

  size_t num_points() const { return num_points_; }  ///< n
  size_t phi() const { return phi_; }                ///< ranges per dim

  /// Expected number of points in a k-dimensional cube: N·f^k. k >= 1.
  double ExpectedCount(size_t k) const;

  /// S(D) for a cube of dimensionality k holding `count` points. k >= 1.
  double Coefficient(size_t count, size_t k) const;

  /// S(D) with an explicit expected cell probability instead of f^k — the
  /// empirical-marginals mode (product of actual range fractions), used when
  /// heavy ties make equi-depth ranges uneven. `cell_probability` in (0,1).
  double CoefficientWithProbability(size_t count,
                                    double cell_probability) const;

  /// S of an empty k-dimensional cube: -sqrt(N / (phi^k - 1)) (§2.4).
  double EmptyCubeCoefficient(size_t k) const;

  /// Exact one-sided significance P[Binomial(N, f^k) <= count] — no normal
  /// approximation. Equation 1's z-score is noticeably off exactly where it
  /// matters (expected counts of a few points); this is the honest number.
  /// k >= 1.
  double ExactSignificance(size_t count, size_t k) const;

 private:
  size_t num_points_;
  size_t phi_;
};

/// The paper's rule for choosing the projection dimensionality (§2.4):
/// k* = floor(log_phi(N / s^2 + 1)), the largest k at which an empty cube
/// still has sparsity coefficient <= s (s is negative, typically -3).
/// Returns at least 1. Preconditions: num_points >= 1, phi >= 2, s < 0.
size_t RecommendProjectionDim(size_t num_points, size_t phi, double s);

}  // namespace hido

#endif  // HIDO_GRID_SPARSITY_H_
