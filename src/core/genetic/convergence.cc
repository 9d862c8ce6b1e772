#include "core/genetic/convergence.h"

#include <algorithm>
#include <unordered_map>

#include "common/macros.h"

namespace hido {

double GeneAgreement(const std::vector<Individual>& population, size_t pos) {
  HIDO_CHECK(!population.empty());
  std::unordered_map<uint32_t, size_t> counts;
  for (const Individual& individual : population) {
    const uint32_t allele = individual.projection.IsSpecified(pos)
                                ? individual.projection.CellAt(pos)
                                : 0xFFFFFFFFu;
    ++counts[allele];
  }
  size_t best = 0;
  for (const auto& [allele, count] : counts) {
    HIDO_UNUSED(allele);
    if (count > best) best = count;
  }
  return static_cast<double>(best) / static_cast<double>(population.size());
}

bool PopulationConverged(const std::vector<Individual>& population,
                         double threshold) {
  HIDO_CHECK(!population.empty());
  // The modal string's multiplicity: sort pointers to the strings so equal
  // ones are adjacent, then take the longest run.
  std::vector<const Projection*> strings;
  strings.reserve(population.size());
  for (const Individual& individual : population) {
    strings.push_back(&individual.projection);
  }
  std::sort(strings.begin(), strings.end(),
            [](const Projection* a, const Projection* b) { return *a < *b; });
  size_t modal = 0;
  for (size_t start = 0; start < strings.size();) {
    size_t end = start + 1;
    while (end < strings.size() && *strings[end] == *strings[start]) ++end;
    modal = std::max(modal, end - start);
    start = end;
  }
  return static_cast<double>(modal) >=
         threshold * static_cast<double>(population.size());
}

}  // namespace hido
