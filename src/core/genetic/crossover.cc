#include "core/genetic/crossover.h"

#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>

#include "common/macros.h"
#include "common/parallel.h"

namespace hido {

namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

// Sparsity of the cube given by `conditions` when it is below `bound`, else
// +infinity, as for an empty condition list (an unconstrained "cube" is not
// meaningfully sparse). The loops below keep a candidate only when it is
// strictly sparser than their best so far, so passing that best as the
// bound stops counting a candidate they would never keep, and the winner
// is always counted in full.
double PartialSparsity(const std::vector<DimRange>& conditions, double bound,
                       SparsityObjective& objective) {
  if (conditions.empty()) return kInfinity;
  const std::optional<CubeEvaluation> eval =
      objective.EvaluateConditionsBelow(conditions, bound);
  return eval ? eval->sparsity : kInfinity;
}

// A Type II position (neither parent *) with both parents' cells.
struct Type2Position {
  uint32_t pos;
  uint32_t cell1;  // s1's cell
  uint32_t cell2;  // s2's cell
};

// One thread's OptimizedCrossover buffers, reused from call to call (the
// function never re-enters itself), so a call allocates nothing once they
// have grown to the pair's size.
struct CrossoverScratch {
  std::vector<Type2Position> type2;  // ascending by position
  std::vector<size_t> disagree;      // indices into type2 whose cells differ
  std::vector<DimRange> type3;       // (position, the non-* parent's cell)
  std::vector<uint8_t> from_s1;      // per disagreement: child takes cell1
  std::vector<uint8_t> taken;        // per Type III candidate: child took it
  std::vector<DimRange> base;        // the agreeing Type II conditions
  std::vector<DimRange> conditions;  // the partial cube being scored
};

}  // namespace

void TwoPointCrossover(Projection& s1, Projection& s2, Rng& rng) {
  const size_t d = s1.num_dims();
  HIDO_CHECK(d >= 2);
  // Segments to the right of `cut` are exchanged; cut in [1, d-1] so both
  // segments are non-empty.
  const size_t cut = static_cast<size_t>(rng.UniformInt(1, static_cast<int64_t>(d) - 1));
  TwoPointCrossoverAt(s1, s2, cut);
}

void TwoPointCrossoverAt(Projection& s1, Projection& s2, size_t cut) {
  const size_t d = s1.num_dims();
  HIDO_CHECK(d == s2.num_dims());
  HIDO_CHECK(cut >= 1 && cut < d);
  for (size_t pos = cut; pos < d; ++pos) {
    const bool a = s1.IsSpecified(pos);
    const bool b = s2.IsSpecified(pos);
    const uint32_t cell1 = a ? s1.CellAt(pos) : 0;
    const uint32_t cell2 = b ? s2.CellAt(pos) : 0;
    if (b) {
      s1.Specify(pos, cell2);
    } else {
      s1.Unspecify(pos);
    }
    if (a) {
      s2.Specify(pos, cell1);
    } else {
      s2.Unspecify(pos);
    }
  }
}

void OptimizedCrossover(Projection& s1, Projection& s2, size_t target_k,
                        SparsityObjective& objective,
                        const OptimizedCrossoverOptions& options) {
  const size_t d = s1.num_dims();
  HIDO_CHECK(d == s2.num_dims());
  HIDO_CHECK(target_k >= 1);
  HIDO_CHECK_MSG(s1.Dimensionality() == target_k &&
                     s2.Dimensionality() == target_k,
                 "optimized crossover needs two k-dimensional parents");
  thread_local CrossoverScratch scratch;
  std::vector<Type2Position>& type2 = scratch.type2;
  std::vector<size_t>& disagree = scratch.disagree;
  std::vector<DimRange>& type3 = scratch.type3;
  std::vector<DimRange>& conditions = scratch.conditions;

  // Position classification (specific to this parent pair). Type I (both
  // *): both children keep *.
  type2.clear();
  disagree.clear();
  type3.clear();
  for (uint32_t pos = 0; pos < d; ++pos) {
    const bool a = s1.IsSpecified(pos);
    const bool b = s2.IsSpecified(pos);
    if (a && b) {
      if (s1.CellAt(pos) != s2.CellAt(pos)) disagree.push_back(type2.size());
      type2.push_back({pos, s1.CellAt(pos), s2.CellAt(pos)});
    } else if (a) {
      type3.push_back({pos, s1.CellAt(pos)});
    } else if (b) {
      type3.push_back({pos, s2.CellAt(pos)});
    }
  }

  // --- Type II: best of the 2^k' recombinations -------------------------
  // Agreeing positions are forced; only disagreements are choice bits.
  // from_s1[i]: the child takes s1's cell at type2[disagree[i]].
  std::vector<uint8_t>& from_s1 = scratch.from_s1;
  from_s1.assign(disagree.size(), 1);
  if (!disagree.empty()) {
    std::vector<DimRange>& base = scratch.base;
    base.clear();
    for (const Type2Position& t : type2) {
      if (t.cell1 == t.cell2) base.push_back({t.pos, t.cell1});
    }
    if (disagree.size() <= options.max_enumeration_bits) {
      // Exhaustive search over the 2^|disagree| assignments.
      double best_sparsity = kInfinity;
      uint64_t best_mask = 0;
      const uint64_t limit = uint64_t{1} << disagree.size();
      for (uint64_t mask = 0; mask < limit; ++mask) {
        conditions = base;
        for (size_t i = 0; i < disagree.size(); ++i) {
          const Type2Position& t = type2[disagree[i]];
          conditions.push_back({t.pos, (mask >> i) & 1 ? t.cell2 : t.cell1});
        }
        const double sparsity =
            PartialSparsity(conditions, best_sparsity, objective);
        if (sparsity < best_sparsity) {
          best_sparsity = sparsity;
          best_mask = mask;
        }
      }
      for (size_t i = 0; i < disagree.size(); ++i) {
        from_s1[i] = ((best_mask >> i) & 1) == 0;
      }
    } else {
      // Greedy fallback: fix each disagreeing position in turn to whichever
      // parent's value leaves the partial cube sparser; both are counted
      // in full.
      conditions = base;
      for (size_t i = 0; i < disagree.size(); ++i) {
        const Type2Position& t = type2[disagree[i]];
        conditions.push_back({t.pos, t.cell1});
        const double with_s1 =
            PartialSparsity(conditions, kInfinity, objective);
        conditions.back().cell = t.cell2;
        const double with_s2 =
            PartialSparsity(conditions, kInfinity, objective);
        from_s1[i] = with_s1 <= with_s2;
        if (from_s1[i]) conditions.back().cell = t.cell1;
      }
    }
  }

  // --- Type III: greedy extension to k positions ------------------------
  // The child so far holds every Type II position, ascending by dimension.
  conditions.clear();
  for (size_t i = 0, next = 0; i < type2.size(); ++i) {
    const bool chosen_s1 =
        next < disagree.size() && disagree[next] == i ? from_s1[next++] : 1;
    conditions.push_back(
        {type2[i].pos, chosen_s1 ? type2[i].cell1 : type2[i].cell2});
  }
  std::vector<uint8_t>& taken = scratch.taken;
  taken.assign(type3.size(), 0);
  for (size_t num_taken = 0; conditions.size() < target_k; ++num_taken) {
    HIDO_CHECK_MSG(
        num_taken < type3.size(),
        "ran out of Type III candidates before reaching dimensionality k");
    double best_sparsity = kInfinity;
    size_t best_idx = type3.size();
    for (size_t i = 0; i < type3.size(); ++i) {
      if (taken[i]) continue;
      conditions.push_back(type3[i]);
      const double sparsity =
          PartialSparsity(conditions, best_sparsity, objective);
      conditions.pop_back();
      if (sparsity < best_sparsity) {
        best_sparsity = sparsity;
        best_idx = i;
      }
    }
    HIDO_CHECK(best_idx < type3.size());
    taken[best_idx] = 1;
    conditions.push_back(type3[best_idx]);
  }

  // --- The children, written over the parents ---------------------------
  // s1 becomes the child and s2 its complement, which at every position
  // derives from the opposite parent. Agreeing Type II and Type I
  // positions are the same in both parents and children.
  for (size_t i = 0; i < disagree.size(); ++i) {
    const Type2Position& t = type2[disagree[i]];
    s1.Specify(t.pos, from_s1[i] ? t.cell1 : t.cell2);
    s2.Specify(t.pos, from_s1[i] ? t.cell2 : t.cell1);
  }
  for (size_t i = 0; i < type3.size(); ++i) {
    // A candidate the child took is * in the complement (the other
    // parent's value); one it left is the complement's.
    Projection& holder = taken[i] ? s1 : s2;
    Projection& other = taken[i] ? s2 : s1;
    holder.Specify(type3[i].dim, type3[i].cell);
    other.Unspecify(type3[i].dim);
  }
}

void CrossoverPopulation(std::vector<Individual>& population,
                         CrossoverKind kind, size_t target_k,
                         SparsityObjective& objective, Rng& rng) {
  CrossoverPopulation(population, kind, target_k,
                      std::vector<SparsityObjective*>{&objective}, rng);
}

void CrossoverPopulation(std::vector<Individual>& population,
                         CrossoverKind kind, size_t target_k,
                         const std::vector<SparsityObjective*>& objectives,
                         Rng& rng) {
  HIDO_CHECK(!objectives.empty());
  const size_t p = population.size();
  if (p < 2) return;
  std::vector<size_t> order(p);
  std::iota(order.begin(), order.end(), 0);
  rng.Shuffle(order);

  // Fix the whole random stream before fanning out: which pairs fall back
  // to two-point is known from parent feasibility, and each such pair
  // consumes exactly one cut draw, in pair order — the same consumption
  // pattern as the serial loop.
  const size_t num_pairs = p / 2;
  std::vector<size_t> cuts(num_pairs, 0);
  std::vector<uint8_t> two_point(num_pairs, 0);
  for (size_t pair = 0; pair < num_pairs; ++pair) {
    const Individual& first = population[order[2 * pair]];
    const Individual& second = population[order[2 * pair + 1]];
    if (kind != CrossoverKind::kOptimized || !first.feasible ||
        !second.feasible) {
      two_point[pair] = 1;
      const size_t d = first.projection.num_dims();
      HIDO_CHECK(d >= 2);
      cuts[pair] =
          static_cast<size_t>(rng.UniformInt(1, static_cast<int64_t>(d) - 1));
    }
  }

  ParallelFor(num_pairs, objectives.size(), [&](size_t pair, size_t worker) {
    Individual& first = population[order[2 * pair]];
    Individual& second = population[order[2 * pair + 1]];
    SparsityObjective& objective = *objectives[worker];
    if (two_point[pair]) {
      TwoPointCrossoverAt(first.projection, second.projection, cuts[pair]);
    } else {
      OptimizedCrossover(first.projection, second.projection, target_k,
                         objective);
    }
    EvaluateIndividual(first, target_k, objective);
    EvaluateIndividual(second, target_k, objective);
  });
}

}  // namespace hido
