#ifndef HIDO_CORE_GENETIC_CROSSOVER_H_
#define HIDO_CORE_GENETIC_CROSSOVER_H_

// Solution recombination (§2.2, Figure 5).
//
// Two operators are provided, matching the paper's comparison:
//
// * Unbiased two-point crossover — the textbook operator: cut both strings
//   at a random position and swap the right-hand segments. It ignores the
//   dimensionality constraint, so children frequently represent cubes of
//   the wrong dimensionality; such infeasible strings receive +infinity
//   sparsity and are bred out by selection.
//
// * Optimized crossover — dimensionality-preserving and fitness-seeking.
//   Positions are classified per parent pair: Type I (both *), Type II
//   (neither *, k' positions), Type III (exactly one *, 2(k-k') positions).
//   The first child keeps * on Type I, takes the best of the 2^k' value
//   combinations on Type II (exhaustive while small, greedy beyond
//   max_enumeration_bits), and is extended greedily over Type III
//   candidates — always adding the position whose inclusion yields the most
//   negative sparsity coefficient — until it has k positions. The second
//   child is complementary: at every position it derives from the opposite
//   parent of the first child. Both children are k-dimensional by
//   construction.

#include "common/rng.h"
#include "core/genetic/individual.h"
#include "core/objective.h"
#include "core/projection.h"

namespace hido {

/// Which recombination operator the search uses. Table 1's "Gen" column is
/// kTwoPoint; "Gen°" is kOptimized.
enum class CrossoverKind {
  kTwoPoint,
  kOptimized,
};

/// Unbiased crossover: swaps the segments right of a uniform cut point in
/// [1, d-1], turning the parents into the children in place. Children may
/// be infeasible. Precondition: equal num_dims >= 2.
void TwoPointCrossover(Projection& s1, Projection& s2, Rng& rng);

/// Deterministic core of TwoPointCrossover with an explicit cut in
/// [1, d-1]. Exposed so a parallel caller can pre-draw all cut points from
/// one RNG (fixing the random stream) and then recombine pairs on worker
/// threads without touching the RNG.
void TwoPointCrossoverAt(Projection& s1, Projection& s2, size_t cut);

/// Tuning knobs for OptimizedCrossover.
struct OptimizedCrossoverOptions {
  /// Exhaustive Type II enumeration is used while the number of
  /// *disagreeing* Type II positions is at most this; beyond it each
  /// position is fixed greedily (left to right, most negative sparsity).
  size_t max_enumeration_bits = 12;
};

/// Optimized crossover (Recombine in Figure 5), in place: `s1` becomes the
/// first child and `s2` its complement. Both parents must have
/// dimensionality `target_k` >= 1; both children are k-dimensional. Its
/// buffers are per thread and reused, so a call allocates nothing once
/// they have grown.
void OptimizedCrossover(
    Projection& s1, Projection& s2, size_t target_k,
    SparsityObjective& objective,
    const OptimizedCrossoverOptions& options = OptimizedCrossoverOptions());

/// Applies crossover across a population (Figure 5 "Crossover"): shuffles,
/// matches pairwise, replaces each pair by its two children, and evaluates
/// the children. With kOptimized, pairs containing an infeasible parent
/// fall back to two-point (cannot occur in a pure optimized run, where all
/// strings stay feasible). An odd individual is left unchanged.
void CrossoverPopulation(std::vector<Individual>& population,
                         CrossoverKind kind, size_t target_k,
                         SparsityObjective& objective, Rng& rng);

/// Parallel CrossoverPopulation: pairs are recombined and evaluated on up
/// to `objectives.size()` workers, worker w using `*objectives[w]` (one
/// private objective per worker; objectives[0] may be the caller's own).
/// All randomness (the shuffle and every two-point cut) is drawn from `rng`
/// up front in pair order, so the result is bit-identical to the serial
/// variant regardless of worker count or scheduling.
void CrossoverPopulation(std::vector<Individual>& population,
                         CrossoverKind kind, size_t target_k,
                         const std::vector<SparsityObjective*>& objectives,
                         Rng& rng);

}  // namespace hido

#endif  // HIDO_CORE_GENETIC_CROSSOVER_H_
