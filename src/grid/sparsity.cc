#include "grid/sparsity.h"

#include <cmath>

#include "common/macros.h"
#include "common/stats.h"

namespace hido {

SparsityModel::SparsityModel(size_t num_points, size_t phi)
    : num_points_(num_points), phi_(phi) {
  HIDO_CHECK(num_points_ >= 1);
  HIDO_CHECK(phi_ >= 2);
}

double SparsityModel::ExpectedCount(size_t k) const {
  HIDO_CHECK(k >= 1);
  const double f = 1.0 / static_cast<double>(phi_);
  return static_cast<double>(num_points_) *
         std::pow(f, static_cast<double>(k));
}

double SparsityModel::Coefficient(size_t count, size_t k) const {
  HIDO_CHECK(k >= 1);
  const double fk =
      std::pow(1.0 / static_cast<double>(phi_), static_cast<double>(k));
  return CoefficientWithProbability(count, fk);
}

double SparsityModel::CoefficientWithProbability(
    size_t count, double cell_probability) const {
  HIDO_CHECK(cell_probability > 0.0 && cell_probability < 1.0);
  const double n = static_cast<double>(num_points_);
  const double expected = n * cell_probability;
  const double stddev =
      std::sqrt(n * cell_probability * (1.0 - cell_probability));
  return (static_cast<double>(count) - expected) / stddev;
}

double SparsityModel::EmptyCubeCoefficient(size_t k) const {
  HIDO_CHECK(k >= 1);
  const double phik = std::pow(static_cast<double>(phi_),
                               static_cast<double>(k));
  return -std::sqrt(static_cast<double>(num_points_) / (phik - 1.0));
}

double SparsityModel::ExactSignificance(size_t count, size_t k) const {
  HIDO_CHECK(k >= 1);
  const double fk =
      std::pow(1.0 / static_cast<double>(phi_), static_cast<double>(k));
  return BinomialLowerTail(num_points_, fk, count);
}

size_t RecommendProjectionDim(size_t num_points, size_t phi, double s) {
  HIDO_CHECK(num_points >= 1);
  HIDO_CHECK(phi >= 2);
  HIDO_CHECK_MSG(s < 0.0, "the sparsity target s must be negative");
  // Solve sqrt(N / (phi^k - 1)) = -s  =>  k = log_phi(N / s^2 + 1).
  const double k = std::log(static_cast<double>(num_points) / (s * s) + 1.0) /
                   std::log(static_cast<double>(phi));
  const double floored = std::floor(k);
  if (floored < 1.0) return 1;
  return static_cast<size_t>(floored);
}

}  // namespace hido
