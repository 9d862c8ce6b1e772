#include "core/objective.h"

#include <algorithm>

#include "common/bitset_kernels.h"
#include "common/macros.h"

namespace hido {

namespace {

// Validation of a condition list; all but the emptiness check is debug-only.
void ValidateConditions(const GridModel& grid,
                        const std::vector<DimRange>& conditions) {
  HIDO_CHECK(!conditions.empty());
#ifndef NDEBUG
  for (size_t i = 0; i < conditions.size(); ++i) {
    HIDO_CHECK(conditions[i].dim < grid.num_dims());
    HIDO_CHECK(conditions[i].cell < grid.phi());
    for (size_t j = i + 1; j < conditions.size(); ++j) {
      HIDO_CHECK_MSG(conditions[i].dim != conditions[j].dim,
                     "duplicate dimension %u in cube", conditions[i].dim);
    }
  }
#else
  HIDO_UNUSED(grid);
#endif
}

}  // namespace

SparsityObjective::SparsityObjective(const GridModel& grid,
                                     ExpectationModel model)
    : grid_(&grid),
      model_(grid.num_points(), grid.phi()),
      expectation_(model) {}

CubeEvaluation SparsityObjective::Evaluate(const Projection& projection) {
  HIDO_CHECK_MSG(projection.Dimensionality() >= 1,
                 "cannot evaluate the empty projection");
  return EvaluateConditions(projection.Conditions());
}

CubeEvaluation SparsityObjective::EvaluateConditions(
    const std::vector<DimRange>& conditions) {
  ValidateConditions(*grid_, conditions);
  ++num_evaluations_;
  CubeEvaluation eval;
  if (conditions.size() == 1) {
    eval.count =
        grid_->RangeCardinality(conditions[0].dim, conditions[0].cell);
  } else {
    sources_.clear();
    size_t num_words = 0;  // the same for every bitmap over the grid's points
    for (const DimRange& c : conditions) {
      const DynamicBitset& bits = grid_->RangeBits(c.dim, c.cell);
      sources_.push_back(bits.words());
      num_words = bits.num_words();
    }
    eval.count = ActiveKernels().and_count_many(sources_.data(),
                                                sources_.size(), num_words);
  }
  double probability = 1.0;
  if (expectation_ == ExpectationModel::kEmpiricalMarginals) {
    for (const DimRange& c : conditions) {
      probability *= grid_->RangeFraction(c.dim, c.cell);
    }
  }
  eval.sparsity = Sparsity(eval.count, conditions.size(), probability);
  return eval;
}

double SparsityObjective::Sparsity(size_t count, size_t k,
                                   double probability) const {
  if (expectation_ == ExpectationModel::kUniform) {
    return model_.Coefficient(count, k);
  }
  // Degenerate ranges (probability 0 or 1) fall outside the binomial
  // model; clamp into the open interval.
  probability = std::min(1.0 - 1e-12, std::max(1e-12, probability));
  return model_.CoefficientWithProbability(count, probability);
}

ScoredProjection SparsityObjective::Score(Projection projection) {
  const CubeEvaluation eval = Evaluate(projection);
  ScoredProjection scored;
  scored.projection = std::move(projection);
  scored.count = eval.count;
  scored.sparsity = eval.sparsity;
  return scored;
}

}  // namespace hido
