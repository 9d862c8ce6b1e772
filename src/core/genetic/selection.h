#ifndef HIDO_CORE_GENETIC_SELECTION_H_
#define HIDO_CORE_GENETIC_SELECTION_H_

// Rank-roulette selection (Figure 4): individuals are ranked by sparsity
// coefficient (most negative first, rank 1); a string is sampled with
// probability proportional to p - r(i), so the best string has weight p-1
// and the worst weight 0. The new population consists of p such draws with
// replacement.

#include <vector>

#include "common/rng.h"
#include "core/genetic/individual.h"

namespace hido {

/// Replaces `*selected` with a population of the same size drawn by rank
/// roulette, copy-assigning into its storage (a caller that keeps the
/// buffer across generations allocates nothing). Precondition:
/// population.size() >= 2 (with one string the paper's weights are all
/// zero); `selected` is not `&population`.
void RankRouletteSelection(const std::vector<Individual>& population,
                           Rng& rng, std::vector<Individual>* selected);

/// The per-rank weights used by RankRouletteSelection (exposed for tests):
/// weights[i] is the weight of the individual at *sorted* rank i+1.
std::vector<double> RankSelectionWeights(size_t population_size);

}  // namespace hido

#endif  // HIDO_CORE_GENETIC_SELECTION_H_
