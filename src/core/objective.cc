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
  const size_t k = projection.Dimensionality();
  HIDO_CHECK_MSG(k >= 1, "cannot evaluate the empty projection");
  // Gather straight from the string, ascending by dimension: the order
  // Conditions() lists, so the empirical product is the same.
  sources_.clear();
  double probability = 1.0;
  DimRange first{};
  for (uint32_t dim = 0; sources_.size() < k; ++dim) {
    if (!projection.IsSpecified(dim)) continue;
    const DimRange c{dim, projection.CellAt(dim)};
    HIDO_DCHECK(c.cell < grid_->phi());
    if (sources_.empty()) first = c;
    Gather(c, &probability);
  }
  return CountGathered(first, probability);
}

CubeEvaluation SparsityObjective::EvaluateConditions(
    const std::vector<DimRange>& conditions) {
  ValidateConditions(*grid_, conditions);
  sources_.clear();
  double probability = 1.0;
  for (const DimRange& c : conditions) Gather(c, &probability);
  return CountGathered(conditions.front(), probability);
}

void SparsityObjective::Gather(const DimRange& c, double* probability) {
  sources_.push_back(grid_->RangeBits(c.dim, c.cell).words());
  if (expectation_ == ExpectationModel::kEmpiricalMarginals) {
    *probability *= grid_->RangeFraction(c.dim, c.cell);
  }
}

CubeEvaluation SparsityObjective::CountGathered(const DimRange& first,
                                                double probability) {
  ++num_evaluations_;
  CubeEvaluation eval;
  if (sources_.size() == 1) {
    eval.count = grid_->RangeCardinality(first.dim, first.cell);
  } else {
    // Every bitmap over the grid's points has the same word count.
    const size_t num_words =
        grid_->RangeBits(first.dim, first.cell).num_words();
    eval.count = ActiveKernels().and_count_many(sources_.data(),
                                                sources_.size(), num_words);
  }
  eval.sparsity = Sparsity(eval.count, sources_.size(), probability);
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

}  // namespace hido
