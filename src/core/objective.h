#ifndef HIDO_CORE_OBJECTIVE_H_
#define HIDO_CORE_OBJECTIVE_H_

// Fitness evaluation: projection -> (point count, sparsity coefficient).
// Shared by the brute-force search, the evolutionary search, and the
// optimized-crossover operator (which scores partial strings).

#include <cstdint>

#include "core/projection.h"
#include "grid/cube_counter.h"
#include "grid/sparsity.h"

namespace hido {

/// How the expected cell probability of a k-dimensional cube is modelled.
enum class ExpectationModel {
  /// f^k with f = 1/phi (Equation 1). Exact for equi-depth ranges without
  /// ties; the paper's default.
  kUniform,
  /// Product of each range's empirical fraction of points. Compensates for
  /// uneven ranges caused by heavily tied values.
  kEmpiricalMarginals,
};

/// A projection together with its evaluation.
struct ScoredProjection {
  Projection projection;  ///< the subspace cube
  size_t count = 0;       ///< n(D): points inside the cube
  double sparsity = 0.0;  ///< S(D), Equation 1
};

/// Evaluation of one cube.
struct CubeEvaluation {
  size_t count = 0;        ///< points falling in the cube
  double sparsity = 0.0;   ///< the paper's sparsity coefficient
};

/// Computes sparsity coefficients over a grid model. Holds a reference to a
/// CubeCounter (whose statistics it feeds); not thread-safe.
class SparsityObjective {
 public:
  /// `counter` must outlive the objective.
  SparsityObjective(CubeCounter& counter,
                    ExpectationModel model = ExpectationModel::kUniform);

  /// Evaluates a non-empty projection (Dimensionality() >= 1).
  CubeEvaluation Evaluate(const Projection& projection);

  /// Evaluates an explicit condition list (non-empty, dims distinct).
  CubeEvaluation EvaluateConditions(const std::vector<DimRange>& conditions);

  /// Convenience: wraps Evaluate into a ScoredProjection.
  ScoredProjection Score(Projection projection);

  const SparsityModel& model() const { return model_; }  ///< E[count] model
  const GridModel& grid() const { return counter_->grid(); }  ///< the grid
  CubeCounter& counter() { return *counter_; }  ///< the counting backend
  ExpectationModel expectation() const { return expectation_; }  ///< as built

  /// Total number of cube evaluations performed through this objective.
  uint64_t num_evaluations() const { return num_evaluations_; }

  /// Folds evaluations performed on private per-thread objectives into this
  /// one's total, so callers that account through a single objective see
  /// truthful numbers after a parallel search.
  void AddEvaluations(uint64_t n) { num_evaluations_ += n; }

 private:
  CubeCounter* counter_;
  SparsityModel model_;
  ExpectationModel expectation_;
  uint64_t num_evaluations_ = 0;
};

}  // namespace hido

#endif  // HIDO_CORE_OBJECTIVE_H_
