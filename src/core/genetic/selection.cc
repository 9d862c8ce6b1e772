#include "core/genetic/selection.h"

#include <algorithm>
#include <numeric>

#include "common/macros.h"

namespace hido {

std::vector<double> RankSelectionWeights(size_t population_size) {
  std::vector<double> weights(population_size);
  for (size_t r = 1; r <= population_size; ++r) {
    weights[r - 1] = static_cast<double>(population_size - r);
  }
  return weights;
}

void RankRouletteSelection(const std::vector<Individual>& population,
                           Rng& rng, std::vector<Individual>* selected) {
  const size_t p = population.size();
  HIDO_CHECK_MSG(p >= 2, "rank selection needs a population of >= 2");
  HIDO_CHECK(selected != &population);

  // Rank by sparsity, most negative first; ties broken by original index
  // for determinism.
  std::vector<size_t> order(p);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return population[a].sparsity < population[b].sparsity;
  });

  // The weights' running sums, added in rank order, once per generation:
  // each draw lands where a walk over the weights would.
  std::vector<double> cumulative = RankSelectionWeights(p);
  std::partial_sum(cumulative.begin(), cumulative.end(), cumulative.begin());
  selected->resize(p);
  for (size_t i = 0; i < p; ++i) {
    (*selected)[i] = population[order[rng.WeightedIndex(cumulative)]];
  }
}

}  // namespace hido
