#include "core/objective.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/bitset_kernels.h"
#include "common/macros.h"

namespace hido {

namespace {

// Words a bounded count reads between two looks at its running count:
// 8192 rows. 64 and 256 words took the same search time.
constexpr size_t kBoundedChunkWords = 128;

// The bound of a full count: every score is finite, so below it.
constexpr double kNoBound = std::numeric_limits<double>::infinity();

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
      expectation_(model) {
  if (expectation_ != ExpectationModel::kUniform) return;
  // SparsityModel::Coefficient's f^k and moments, computed once per k.
  const double n = static_cast<double>(grid.num_points());
  for (size_t k = 1; k <= grid.num_dims(); ++k) {
    const double fk = std::pow(1.0 / static_cast<double>(grid.phi()),
                               static_cast<double>(k));
    if (!(fk > 0.0)) break;
    uniform_moments_.push_back({n * fk, std::sqrt(n * fk * (1.0 - fk))});
  }
}

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
  return CountGathered(first, probability, kNoBound).value();
}

CubeEvaluation SparsityObjective::EvaluateConditions(
    const std::vector<DimRange>& conditions) {
  return EvaluateConditionsBelow(conditions, kNoBound).value();
}

std::optional<CubeEvaluation> SparsityObjective::EvaluateConditionsBelow(
    const std::vector<DimRange>& conditions, double bound) {
  ValidateConditions(*grid_, conditions);
  sources_.clear();
  double probability = 1.0;
  for (const DimRange& c : conditions) Gather(c, &probability);
  return CountGathered(conditions.front(), probability, bound);
}

void SparsityObjective::Gather(const DimRange& c, double* probability) {
  sources_.push_back(grid_->RangeBits(c.dim, c.cell).words());
  if (expectation_ == ExpectationModel::kEmpiricalMarginals) {
    *probability *= grid_->RangeFraction(c.dim, c.cell);
  }
}

std::optional<CubeEvaluation> SparsityObjective::CountGathered(
    const DimRange& first, double probability, double bound) {
  ++num_evaluations_;
  const size_t k = sources_.size();
  const NullMoments moments = Moments(k, probability);
  if (!(Score(0, moments) < bound)) return std::nullopt;

  // The score never decreases as the count grows, so the cube scores below
  // `bound` exactly when its count is at most `limit`, the largest count
  // that does: the closed form, then an exact correction against the score
  // for the closed form's rounding.
  const size_t num_points = grid_->num_points();
  const double root = moments.expected + bound * moments.stddev;
  size_t limit = num_points;
  if (root < static_cast<double>(num_points)) {
    limit = root > 0.0 ? static_cast<size_t>(std::ceil(root)) - 1 : 0;
  }
  while (limit < num_points && Score(limit + 1, moments) < bound) ++limit;
  while (limit > 0 && !(Score(limit, moments) < bound)) --limit;

  size_t count = 0;
  if (k == 1) {
    count = grid_->RangeCardinality(first.dim, first.cell);
  } else {
    // Every bitmap over the grid's points has the same word count.
    const size_t num_words =
        grid_->RangeBits(first.dim, first.cell).num_words();
    // A cube that cannot pass `limit` is counted in one call.
    const size_t chunk =
        limit < num_points ? kBoundedChunkWords : num_words;
    const BitsetKernels& kernels = ActiveKernels();
    for (size_t begin = 0; begin < num_words && count <= limit;
         begin += chunk) {
      const size_t words = std::min(chunk, num_words - begin);
      count += kernels.and_count_many(sources_.data(), k, words);
      for (const uint64_t*& source : sources_) source += words;
    }
  }
  if (count > limit) return std::nullopt;
  return CubeEvaluation{count, Score(count, moments)};
}

double SparsityObjective::Sparsity(size_t count, size_t k,
                                   double probability) const {
  return Score(count, Moments(k, probability));
}

double SparsityObjective::Score(size_t count, const NullMoments& moments) {
  // SparsityModel::CoefficientWithProbability's expression.
  return (static_cast<double>(count) - moments.expected) / moments.stddev;
}

SparsityObjective::NullMoments SparsityObjective::Moments(
    size_t k, double probability) const {
  if (expectation_ == ExpectationModel::kUniform) {
    HIDO_CHECK_MSG(k >= 1 && k <= uniform_moments_.size(),
                   "no f^k for a %zu-cube over %zu ranges", k, grid_->phi());
    return uniform_moments_[k - 1];
  }
  // Degenerate ranges (probability 0 or 1) fall outside the binomial
  // model; clamp into the open interval.
  probability = std::min(1.0 - 1e-12, std::max(1e-12, probability));
  const double n = static_cast<double>(grid_->num_points());
  return {n * probability, std::sqrt(n * probability * (1.0 - probability))};
}

}  // namespace hido
