#ifndef HIDO_CORE_OBJECTIVE_H_
#define HIDO_CORE_OBJECTIVE_H_

// Fitness evaluation: projection -> (point count, sparsity coefficient).
// One SparsityObjective is the evaluator of one search worker: brute force,
// the evolutionary search, the optimized-crossover operator (which scores
// partial strings) and the local searches all count and score cubes through
// it. A 1-cube count is its range's stored cardinality; a k-cube count is
// one fused AND+popcount over the k range bitmaps. Counts are not memoized:
// see DESIGN.md "Why cube counts are not memoized" for the end-to-end
// measurement.

#include <cstdint>
#include <vector>

#include "core/projection.h"
#include "grid/grid_model.h"
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

/// Counts and scores cubes over a grid model.
///
/// Threading contract: one objective serves one thread (its evaluation
/// tally and gather scratch are unsynchronized mutable state). Concurrent
/// searches give each worker its own objective over the shared read-only
/// grid. Sparsity() is const and safe to share.
///
/// Determinism: a cube's count and sparsity are pure functions of the grid
/// and the conditions, so they and the tally are identical at any thread
/// count and counting kernel.
class SparsityObjective {
 public:
  /// `grid` must outlive the objective.
  explicit SparsityObjective(
      const GridModel& grid,
      ExpectationModel model = ExpectationModel::kUniform);

  /// Evaluates a non-empty projection (Dimensionality() >= 1).
  CubeEvaluation Evaluate(const Projection& projection);

  /// Counts and scores an explicit condition list, and counts the
  /// evaluation. Preconditions: conditions non-empty (checked), dims
  /// pairwise distinct and every cell < phi (checked in debug builds).
  CubeEvaluation EvaluateConditions(const std::vector<DimRange>& conditions);

  /// S(D) of a k-cube holding `count` points under this objective's
  /// expectation model: the one formula every search scores with.
  /// `probability` is the product of the cube's range fractions
  /// (GridModel::RangeFraction), read only by the empirical model; brute
  /// force carries it down its prefix descent. Counts no evaluation.
  double Sparsity(size_t count, size_t k, double probability) const;

  const SparsityModel& model() const { return model_; }  ///< E[count] model
  const GridModel& grid() const { return *grid_; }       ///< the grid
  ExpectationModel expectation() const { return expectation_; }  ///< as built

  /// Total number of cube evaluations performed through this objective.
  uint64_t num_evaluations() const { return num_evaluations_; }

  /// Folds evaluations performed on private per-thread objectives into this
  /// one's total, so callers that account through a single objective see
  /// truthful numbers after a parallel search.
  void AddEvaluations(uint64_t n) { num_evaluations_ += n; }

 private:
  // Appends condition `c`'s bitmap to sources_ and, under the empirical
  // model, multiplies its range fraction into `*probability`.
  void Gather(const DimRange& c, double* probability);
  // Counts and scores the gathered cube, whose first condition is `first`
  // (a 1-cube's count is that range's stored cardinality), and counts the
  // evaluation.
  CubeEvaluation CountGathered(const DimRange& first, double probability);

  const GridModel* grid_;
  SparsityModel model_;
  ExpectationModel expectation_;
  uint64_t num_evaluations_ = 0;
  std::vector<const uint64_t*> sources_;  ///< a k-cube count's word arrays
};

}  // namespace hido

#endif  // HIDO_CORE_OBJECTIVE_H_
