#include "core/genetic/mutation.h"

#include "common/macros.h"
#include "common/parallel.h"

namespace hido {

namespace {

// The `j`-th position (0-based, ascending) at which `in_list(pos)` holds.
// Precondition: more than j such positions exist.
template <typename InList>
size_t NthPosition(size_t num_dims, size_t j, InList in_list) {
  for (size_t pos = 0; pos < num_dims; ++pos) {
    if (in_list(pos) && j-- == 0) return pos;
  }
  HIDO_CHECK_MSG(false, "position list shorter than the pick");
  return num_dims;
}

}  // namespace

bool MutateProjection(Projection& projection, size_t phi,
                      const MutationOptions& options, Rng& rng) {
  HIDO_CHECK(phi >= 1);
  const size_t d = projection.num_dims();
  const size_t num_specified = projection.Dimensionality();
  const size_t num_stars = d - num_specified;
  bool changed = false;
  // The positions are picked by index into their ascending lists, scanned
  // from the string instead of stored (see DESIGN.md "The GA hot path").
  // After a Type I exchange, the specified list Type II picks from is the
  // one before it with spec_pick's slot holding star_pick.
  size_t star_pick = d;
  size_t spec_pick = d;

  // Type I: exchange a * position with a specified one (needs one of each).
  if (num_stars > 0 && num_specified > 0 && rng.Bernoulli(options.p1)) {
    star_pick = NthPosition(d, rng.UniformIndex(num_stars), [&](size_t pos) {
      return !projection.IsSpecified(pos);
    });
    spec_pick = NthPosition(d, rng.UniformIndex(num_specified),
                            [&](size_t pos) {
                              return projection.IsSpecified(pos);
                            });
    projection.Specify(star_pick,
                       static_cast<uint32_t>(rng.UniformIndex(phi)));
    projection.Unspecify(spec_pick);
    changed = true;
  }

  // Type II: re-randomize the range of one specified position.
  if (num_specified > 0 && rng.Bernoulli(options.p2)) {
    size_t pick = NthPosition(d, rng.UniformIndex(num_specified),
                              [&](size_t pos) {
                                return pos == spec_pick ||
                                       (projection.IsSpecified(pos) &&
                                        pos != star_pick);
                              });
    if (pick == spec_pick) pick = star_pick;
    const uint32_t new_cell = static_cast<uint32_t>(rng.UniformIndex(phi));
    if (new_cell != projection.CellAt(pick)) changed = true;
    projection.Specify(pick, new_cell);
  }
  return changed;
}

size_t MutatePopulation(std::vector<Individual>& population, size_t target_k,
                        const MutationOptions& options,
                        SparsityObjective& objective, Rng& rng) {
  return MutatePopulation(population, target_k, options,
                          std::vector<SparsityObjective*>{&objective}, rng);
}

size_t MutatePopulation(std::vector<Individual>& population, size_t target_k,
                        const MutationOptions& options,
                        const std::vector<SparsityObjective*>& objectives,
                        Rng& rng) {
  HIDO_CHECK(!objectives.empty());
  const size_t phi = objectives.front()->grid().phi();
  // Mutation only consumes randomness; evaluation only consumes cycles.
  // Draw all mutations first, then fan the evaluations out.
  std::vector<size_t> changed;
  for (size_t i = 0; i < population.size(); ++i) {
    if (MutateProjection(population[i].projection, phi, options, rng)) {
      changed.push_back(i);
    }
  }
  ParallelFor(changed.size(), objectives.size(),
              [&](size_t task, size_t worker) {
                EvaluateIndividual(population[changed[task]], target_k,
                                   *objectives[worker]);
              });
  return changed.size();
}

}  // namespace hido
