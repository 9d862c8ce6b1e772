// Draw-order pins for the search's allocation-free operators.
//
// Each operator of the GA and the local searches works in reused buffers:
// positions are picked by scanning the string instead of from stored
// lists, selection draws from running sums, and the sampler fills the
// caller's vector. Any such rewrite must draw the same random numbers,
// with the same bounds, in the same order, and return the same result;
// otherwise reports change while every contract test still passes. Each
// test below runs >= 1000 seeded cases against a copy of the list-based
// version kept here as the reference, and compares both the result and the
// generator state afterwards.

#include <algorithm>
#include <limits>
#include <numeric>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/best_set.h"
#include "core/genetic/convergence.h"
#include "core/genetic/crossover.h"
#include "core/genetic/mutation.h"
#include "core/genetic/selection.h"
#include "core/local_search.h"
#include "data/generators/synthetic.h"

namespace hido {
namespace {

// --- References: the list-based versions the rewrites replaced ----------

namespace reference {

std::vector<size_t> SampleWithoutReplacement(Rng& rng, size_t n,
                                             size_t count) {
  std::vector<size_t> result;
  result.reserve(count);
  if (count == 0) return result;
  if (count * 2 >= n) {
    std::vector<size_t> all(n);
    for (size_t i = 0; i < n; ++i) all[i] = i;
    rng.Shuffle(all);
    result.assign(all.begin(), all.begin() + static_cast<ptrdiff_t>(count));
  } else {
    std::vector<bool> taken(n, false);
    for (size_t j = n - count; j < n; ++j) {
      size_t t = rng.UniformIndex(j + 1);
      if (taken[t]) t = j;
      taken[t] = true;
      result.push_back(t);
    }
  }
  std::sort(result.begin(), result.end());
  return result;
}

size_t WeightedIndex(Rng& rng, const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) total += w;
  double target = rng.UniformDouble() * total;
  double cumulative = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    cumulative += weights[i];
    if (target < cumulative) return i;
  }
  for (size_t i = weights.size(); i > 0; --i) {
    if (weights[i - 1] > 0.0) return i - 1;
  }
  return weights.size() - 1;
}

Projection Random(size_t num_dims, size_t k, size_t phi, Rng& rng) {
  Projection p(num_dims);
  for (size_t d : SampleWithoutReplacement(rng, num_dims, k)) {
    p.Specify(d, static_cast<uint32_t>(rng.UniformIndex(phi)));
  }
  return p;
}

bool MutateProjection(Projection& projection, size_t phi,
                      const MutationOptions& options, Rng& rng) {
  bool changed = false;
  std::vector<size_t> stars;
  std::vector<size_t> specified;
  for (size_t pos = 0; pos < projection.num_dims(); ++pos) {
    (projection.IsSpecified(pos) ? specified : stars).push_back(pos);
  }
  if (!stars.empty() && !specified.empty() && rng.Bernoulli(options.p1)) {
    const size_t star_pick = stars[rng.UniformIndex(stars.size())];
    const size_t spec_pick = specified[rng.UniformIndex(specified.size())];
    projection.Specify(star_pick,
                       static_cast<uint32_t>(rng.UniformIndex(phi)));
    projection.Unspecify(spec_pick);
    changed = true;
    for (size_t& pos : specified) {
      if (pos == spec_pick) pos = star_pick;
    }
  }
  if (!specified.empty() && rng.Bernoulli(options.p2)) {
    const size_t pick = specified[rng.UniformIndex(specified.size())];
    const uint32_t new_cell = static_cast<uint32_t>(rng.UniformIndex(phi));
    if (new_cell != projection.CellAt(pick)) changed = true;
    projection.Specify(pick, new_cell);
  }
  return changed;
}

std::vector<Individual> RankRouletteSelection(
    const std::vector<Individual>& population, Rng& rng) {
  const size_t p = population.size();
  std::vector<size_t> order(p);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return population[a].sparsity < population[b].sparsity;
  });
  const std::vector<double> weights = RankSelectionWeights(p);
  std::vector<Individual> selected;
  for (size_t i = 0; i < p; ++i) {
    selected.push_back(population[order[WeightedIndex(rng, weights)]]);
  }
  return selected;
}

Projection RandomNeighbor(const Projection& current, size_t phi, Rng& rng) {
  Projection next = current;
  const std::vector<size_t> specified = next.SpecifiedDims();
  const bool can_move = next.Dimensionality() < next.num_dims();
  if (can_move && rng.Bernoulli(0.5)) {
    size_t new_dim = rng.UniformIndex(next.num_dims());
    while (next.IsSpecified(new_dim)) {
      new_dim = rng.UniformIndex(next.num_dims());
    }
    const size_t old_dim = specified[rng.UniformIndex(specified.size())];
    next.Unspecify(old_dim);
    next.Specify(new_dim, static_cast<uint32_t>(rng.UniformIndex(phi)));
  } else {
    const size_t dim = specified[rng.UniformIndex(specified.size())];
    next.Specify(dim, static_cast<uint32_t>(rng.UniformIndex(phi)));
  }
  return next;
}

struct KeyHash {
  size_t operator()(const std::vector<uint64_t>& key) const {
    uint64_t h = 1469598103934665603ULL;
    for (uint64_t v : key) {
      h ^= v;
      h *= 1099511628211ULL;
    }
    return static_cast<size_t>(h);
  }
};

bool PopulationConverged(const std::vector<Individual>& population,
                         double threshold) {
  std::unordered_map<std::vector<uint64_t>, size_t, KeyHash> counts;
  size_t modal = 0;
  for (const Individual& individual : population) {
    const size_t count = ++counts[individual.projection.PackedKey()];
    if (count > modal) modal = count;
  }
  return static_cast<double>(modal) >=
         threshold * static_cast<double>(population.size());
}

// The best set that rebuilt every key it compared.
class BestSet {
 public:
  explicit BestSet(size_t capacity) : capacity_(capacity) {}

  bool Offer(const ScoredProjection& candidate) {
    if (candidate.count == 0) return false;
    if (entries_.size() == capacity_ &&
        candidate.sparsity > entries_.back().sparsity) {
      return false;
    }
    std::vector<uint64_t> key = candidate.projection.PackedKey();
    if (keys_.contains(key)) return false;
    if (entries_.size() == capacity_) {
      const ScoredProjection& worst = entries_.back();
      if (candidate.sparsity == worst.sparsity &&
          !(key < worst.projection.PackedKey())) {
        return false;
      }
    }
    const auto pos = std::upper_bound(
        entries_.begin(), entries_.end(), candidate,
        [&key](const ScoredProjection& c, const ScoredProjection& e) {
          if (c.sparsity != e.sparsity) return c.sparsity < e.sparsity;
          return key < e.projection.PackedKey();
        });
    entries_.insert(pos, candidate);
    keys_.insert(std::move(key));
    if (entries_.size() > capacity_) {
      keys_.erase(entries_.back().projection.PackedKey());
      entries_.pop_back();
    }
    return true;
  }

  const std::vector<ScoredProjection>& Sorted() const { return entries_; }

 private:
  size_t capacity_;
  std::vector<ScoredProjection> entries_;
  std::unordered_set<std::vector<uint64_t>, KeyHash> keys_;
};

// The crossover that built two fresh children from condition lists.
std::pair<Projection, Projection> OptimizedCrossover(
    const Projection& s1, const Projection& s2, size_t target_k,
    SparsityObjective& objective, size_t max_enumeration_bits) {
  auto partial = [&](const std::vector<DimRange>& conditions) {
    if (conditions.empty()) return std::numeric_limits<double>::infinity();
    return objective.EvaluateConditions(conditions).sparsity;
  };
  const size_t d = s1.num_dims();
  std::vector<size_t> type2_agree;
  std::vector<size_t> type2_disagree;
  struct Type3Candidate {
    size_t pos;
    uint32_t cell;
  };
  std::vector<Type3Candidate> type3;
  for (size_t pos = 0; pos < d; ++pos) {
    const bool a = s1.IsSpecified(pos);
    const bool b = s2.IsSpecified(pos);
    if (a && b) {
      (s1.CellAt(pos) == s2.CellAt(pos) ? type2_agree : type2_disagree)
          .push_back(pos);
    } else if (a) {
      type3.push_back({pos, s1.CellAt(pos)});
    } else if (b) {
      type3.push_back({pos, s2.CellAt(pos)});
    }
  }
  Projection child(d);
  for (size_t pos : type2_agree) child.Specify(pos, s1.CellAt(pos));
  std::vector<bool> from_s1_choice(type2_disagree.size(), true);
  if (!type2_disagree.empty()) {
    std::vector<DimRange> base;
    for (size_t pos : type2_agree) {
      base.push_back({static_cast<uint32_t>(pos), s1.CellAt(pos)});
    }
    if (type2_disagree.size() <= max_enumeration_bits) {
      double best_sparsity = std::numeric_limits<double>::infinity();
      uint64_t best_mask = 0;
      const uint64_t limit = uint64_t{1} << type2_disagree.size();
      for (uint64_t mask = 0; mask < limit; ++mask) {
        std::vector<DimRange> conditions = base;
        for (size_t i = 0; i < type2_disagree.size(); ++i) {
          const size_t pos = type2_disagree[i];
          conditions.push_back({static_cast<uint32_t>(pos),
                                (mask >> i) & 1 ? s2.CellAt(pos)
                                                : s1.CellAt(pos)});
        }
        const double sparsity = partial(conditions);
        if (sparsity < best_sparsity) {
          best_sparsity = sparsity;
          best_mask = mask;
        }
      }
      for (size_t i = 0; i < type2_disagree.size(); ++i) {
        from_s1_choice[i] = ((best_mask >> i) & 1) == 0;
      }
    } else {
      std::vector<DimRange> conditions = base;
      for (size_t i = 0; i < type2_disagree.size(); ++i) {
        const size_t pos = type2_disagree[i];
        conditions.push_back({static_cast<uint32_t>(pos), s1.CellAt(pos)});
        const double with_s1 = partial(conditions);
        conditions.back().cell = s2.CellAt(pos);
        const double with_s2 = partial(conditions);
        from_s1_choice[i] = with_s1 <= with_s2;
        if (from_s1_choice[i]) conditions.back().cell = s1.CellAt(pos);
      }
    }
    for (size_t i = 0; i < type2_disagree.size(); ++i) {
      const size_t pos = type2_disagree[i];
      child.Specify(pos, from_s1_choice[i] ? s1.CellAt(pos)
                                           : s2.CellAt(pos));
    }
  }
  std::vector<bool> type3_taken(type3.size(), false);
  std::vector<DimRange> conditions = child.Conditions();
  while (child.Dimensionality() < target_k) {
    double best_sparsity = std::numeric_limits<double>::infinity();
    size_t best_idx = type3.size();
    for (size_t i = 0; i < type3.size(); ++i) {
      if (type3_taken[i]) continue;
      conditions.push_back(
          {static_cast<uint32_t>(type3[i].pos), type3[i].cell});
      const double sparsity = partial(conditions);
      conditions.pop_back();
      if (sparsity < best_sparsity) {
        best_sparsity = sparsity;
        best_idx = i;
      }
    }
    type3_taken[best_idx] = true;
    child.Specify(type3[best_idx].pos, type3[best_idx].cell);
    conditions.push_back({static_cast<uint32_t>(type3[best_idx].pos),
                          type3[best_idx].cell});
  }
  Projection complement(d);
  for (size_t pos : type2_agree) complement.Specify(pos, s1.CellAt(pos));
  for (size_t i = 0; i < type2_disagree.size(); ++i) {
    const size_t pos = type2_disagree[i];
    complement.Specify(pos,
                       from_s1_choice[i] ? s2.CellAt(pos) : s1.CellAt(pos));
  }
  for (size_t i = 0; i < type3.size(); ++i) {
    if (!type3_taken[i]) complement.Specify(type3[i].pos, type3[i].cell);
  }
  return {std::move(child), std::move(complement)};
}

}  // namespace reference

// --- Helpers -------------------------------------------------------------

constexpr int kCases = 1000;

void ExpectSameState(const Rng& actual, const Rng& expected, int trial) {
  const RngState a = actual.SaveState();
  const RngState e = expected.SaveState();
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_EQ(a.s[i], e.s[i]) << "case " << trial << ", state word " << i;
  }
  ASSERT_EQ(a.has_spare_normal, e.has_spare_normal) << "case " << trial;
}

// A probability that is often exactly 0 or 1.
double RandomProbability(Rng& rng) {
  const size_t kind = rng.UniformIndex(4);
  if (kind == 0) return 0.0;
  if (kind == 1) return 1.0;
  return rng.UniformDouble();
}

GridModel MakeGrid(size_t n, size_t d, size_t phi, uint64_t seed) {
  GridModel::Options options;
  options.phi = phi;
  return GridModel::Build(GenerateUniform(n, d, seed), options);
}

// --- Tests ---------------------------------------------------------------

TEST(ProjectionDrawOrderTest, SamplerMatchesTheReturningSampler) {
  Rng cases(1);
  std::vector<size_t> sample;  // reused across cases, as callers do
  for (int trial = 0; trial < kCases; ++trial) {
    // Sizes on both sides of the dense/sparse split and of the scan limit.
    const size_t n = 1 + cases.UniformIndex(trial % 4 == 0 ? 400 : 40);
    const size_t count = cases.UniformIndex(n + 1);
    const uint64_t seed = cases.Next64();
    Rng actual(seed);
    Rng expected(seed);
    actual.SampleWithoutReplacement(n, count, &sample);
    ASSERT_EQ(sample, reference::SampleWithoutReplacement(expected, n, count))
        << "case " << trial << " n=" << n << " count=" << count;
    ExpectSameState(actual, expected, trial);
  }
}

TEST(ProjectionDrawOrderTest, RandomizeMatchesRandom) {
  Rng cases(2);
  std::vector<size_t> dims;
  Projection reused(40);
  for (int trial = 0; trial < kCases; ++trial) {
    const size_t d = 1 + cases.UniformIndex(40);
    const size_t k = cases.UniformIndex(d + 1);
    const size_t phi = 1 + cases.UniformIndex(20);
    const uint64_t seed = cases.Next64();
    Rng actual(seed);
    Rng expected(seed);
    if (reused.num_dims() != d) reused = Projection(d);
    reused.Randomize(k, phi, actual, &dims);
    ASSERT_EQ(reused, reference::Random(d, k, phi, expected))
        << "case " << trial;
    ExpectSameState(actual, expected, trial);
    Rng again(seed);
    ASSERT_EQ(Projection::Random(d, k, phi, again), reused);
  }
}

TEST(MutationDrawOrderTest, MatchesTheListBasedMutation) {
  Rng cases(3);
  for (int trial = 0; trial < kCases; ++trial) {
    const size_t d = 1 + cases.UniformIndex(40);
    // Every fifth string is fully specified (no Type I move possible).
    const size_t k = trial % 5 == 0 ? d : cases.UniformIndex(d + 1);
    const size_t phi = 1 + cases.UniformIndex(20);
    MutationOptions options;
    options.p1 = RandomProbability(cases);
    options.p2 = RandomProbability(cases);
    Projection actual_string = reference::Random(d, k, phi, cases);
    Projection expected_string = actual_string;
    const uint64_t seed = cases.Next64();
    Rng actual(seed);
    Rng expected(seed);
    const bool changed =
        MutateProjection(actual_string, phi, options, actual);
    ASSERT_EQ(changed, reference::MutateProjection(expected_string, phi,
                                                   options, expected))
        << "case " << trial;
    ASSERT_EQ(actual_string, expected_string)
        << "case " << trial << ": " << actual_string.ToString() << " vs "
        << expected_string.ToString();
    ASSERT_EQ(actual_string.Dimensionality(), k);
    ExpectSameState(actual, expected, trial);
  }
}

TEST(RankRouletteDrawOrderTest, WeightedIndexMatchesTheWalkOverWeights) {
  Rng cases(4);
  for (int trial = 0; trial < kCases; ++trial) {
    const size_t n = 1 + cases.UniformIndex(30);
    std::vector<double> weights(n);
    for (double& w : weights) {
      // Zero weights, small integers (exact sums) and fractions.
      const size_t kind = cases.UniformIndex(3);
      w = kind == 0   ? 0.0
          : kind == 1 ? static_cast<double>(cases.UniformIndex(10))
                      : cases.UniformDouble();
    }
    if (std::all_of(weights.begin(), weights.end(),
                    [](double w) { return w == 0.0; })) {
      weights[cases.UniformIndex(n)] = 1.0;
    }
    std::vector<double> cumulative(n);
    std::partial_sum(weights.begin(), weights.end(), cumulative.begin());
    const uint64_t seed = cases.Next64();
    Rng actual(seed);
    Rng expected(seed);
    for (int draw = 0; draw < 8; ++draw) {
      const size_t index = actual.WeightedIndex(cumulative);
      ASSERT_EQ(index, reference::WeightedIndex(expected, weights))
          << "case " << trial << " draw " << draw;
      ASSERT_GT(weights[index], 0.0);
    }
    ExpectSameState(actual, expected, trial);
  }
}

TEST(RankRouletteDrawOrderTest, SelectionMatchesPerDrawWeightedIndex) {
  Rng cases(5);
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<Individual> selected;  // reused, as the search does
  for (int trial = 0; trial < kCases; ++trial) {
    const size_t p = 2 + cases.UniformIndex(60);
    const size_t d = 1 + cases.UniformIndex(12);
    std::vector<Individual> population(p);
    for (Individual& individual : population) {
      const size_t k = cases.UniformIndex(d + 1);
      individual.projection = reference::Random(d, k, 5, cases);
      // Infeasible members (+inf) and tied sparsities rank by index.
      const size_t kind = cases.UniformIndex(4);
      individual.feasible = kind != 0;
      individual.sparsity =
          kind == 0 ? inf
                    : -static_cast<double>(cases.UniformIndex(kind == 1 ? 3
                                                                        : 50));
      individual.count = cases.UniformIndex(10);
    }
    const uint64_t seed = cases.Next64();
    Rng actual(seed);
    Rng expected(seed);
    RankRouletteSelection(population, actual, &selected);
    const std::vector<Individual> reference_selected =
        reference::RankRouletteSelection(population, expected);
    ASSERT_EQ(selected.size(), reference_selected.size());
    for (size_t i = 0; i < selected.size(); ++i) {
      ASSERT_EQ(selected[i].projection, reference_selected[i].projection)
          << "case " << trial << " slot " << i;
      ASSERT_EQ(selected[i].sparsity, reference_selected[i].sparsity);
      ASSERT_EQ(selected[i].count, reference_selected[i].count);
      ASSERT_EQ(selected[i].feasible, reference_selected[i].feasible);
    }
    ExpectSameState(actual, expected, trial);
  }
}

TEST(LocalSearchDrawOrderTest, NeighborMatchesTheSpecifiedDimsMove) {
  Rng cases(6);
  Projection next;  // reused, as the searches do
  for (int trial = 0; trial < kCases; ++trial) {
    const size_t d = 1 + cases.UniformIndex(40);
    // Every fifth string is fully specified (only Type II moves).
    const size_t k = trial % 5 == 0 ? d : 1 + cases.UniformIndex(d);
    const size_t phi = 1 + cases.UniformIndex(20);
    const Projection current = reference::Random(d, k, phi, cases);
    const uint64_t seed = cases.Next64();
    Rng actual(seed);
    Rng expected(seed);
    for (int step = 0; step < 4; ++step) {
      LocalSearchNeighbor(current, phi, actual, &next);
      ASSERT_EQ(next, reference::RandomNeighbor(current, phi, expected))
          << "case " << trial << " step " << step;
    }
    ExpectSameState(actual, expected, trial);
  }
}

TEST(ConvergenceDrawOrderTest, ModalCountMatchesTheHashMapCount) {
  Rng cases(7);
  for (int trial = 0; trial < kCases; ++trial) {
    const size_t p = 1 + cases.UniformIndex(80);
    const size_t d = 1 + cases.UniformIndex(6);
    // Few distinct strings so runs of copies form, sometimes one only.
    const size_t distinct = 1 + cases.UniformIndex(trial % 3 == 0 ? 2 : 12);
    std::vector<Projection> pool;
    for (size_t i = 0; i < distinct; ++i) {
      const size_t k = cases.UniformIndex(d + 1);
      pool.push_back(reference::Random(d, k, 3, cases));
    }
    std::vector<Individual> population(p);
    for (Individual& individual : population) {
      individual.projection = pool[cases.UniformIndex(pool.size())];
    }
    for (double threshold : {0.5, 0.9, 0.95, 1.0,
                             cases.UniformDouble()}) {
      ASSERT_EQ(PopulationConverged(population, threshold),
                reference::PopulationConverged(population, threshold))
          << "case " << trial << " threshold " << threshold;
    }
  }
}

TEST(BestSetDrawOrderTest, RetainsWhatTheRebuiltKeySetRetained) {
  Rng cases(8);
  for (int trial = 0; trial < kCases; ++trial) {
    const size_t capacity = 1 + cases.UniformIndex(12);
    BestSet actual(capacity);
    reference::BestSet expected(capacity);
    const size_t offers = cases.UniformIndex(80);
    for (size_t i = 0; i < offers; ++i) {
      // Heavy ties and repeats: few strings, few sparsity levels, and a
      // string's sparsity fixed by its content as a real objective does.
      ScoredProjection candidate;
      const size_t k = 1 + cases.UniformIndex(2);
      candidate.projection = reference::Random(6, k, 2, cases);
      const std::vector<uint64_t> key = candidate.projection.PackedKey();
      candidate.sparsity = -static_cast<double>((key.back() + key.size()) % 3);
      candidate.count = (key.front() + 1) % 4;
      ASSERT_EQ(actual.Offer(candidate), expected.Offer(candidate))
          << "case " << trial << " offer " << i;
    }
    const std::vector<ScoredProjection>& a = actual.Sorted();
    const std::vector<ScoredProjection>& e = expected.Sorted();
    ASSERT_EQ(a.size(), e.size()) << "case " << trial;
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].projection, e[i].projection) << "case " << trial;
      ASSERT_EQ(a[i].sparsity, e[i].sparsity);
    }
  }
}

TEST(OptimizedCrossoverDrawOrderTest, ChildrenAndCountsMatchFreshChildren) {
  // Children written over the parents from reused buffers must equal the
  // fresh children, after the same number of partial-cube evaluations.
  // Under the empirical model a partial cube's sparsity depends on its
  // conditions' order, so that model pins the order too. The reference
  // counts every candidate in full; the 30 000-row grid's bitmaps span
  // four 128-word chunks, so there the operator's bounded counts stop
  // partway through a candidate that cannot win.
  for (const size_t rows : {size_t{300}, size_t{30000}}) {
    SCOPED_TRACE(rows);
    const GridModel grid = MakeGrid(rows, 10, 4, 9);
    Rng cases(9);
    for (ExpectationModel model : {ExpectationModel::kUniform,
                                   ExpectationModel::kEmpiricalMarginals}) {
      SparsityObjective actual_objective(grid, model);
      SparsityObjective expected_objective(grid, model);
      for (int trial = 0; trial < kCases; ++trial) {
        const size_t k = 1 + cases.UniformIndex(6);
        const Projection a = reference::Random(10, k, 4, cases);
        const Projection b = reference::Random(10, k, 4, cases);
        OptimizedCrossoverOptions options;
        // Small limits exercise the greedy Type II fallback.
        options.max_enumeration_bits = cases.UniformIndex(4);
        Projection child = a;
        Projection complement = b;
        OptimizedCrossover(child, complement, k, actual_objective, options);
        const auto [expected_child, expected_complement] =
            reference::OptimizedCrossover(a, b, k, expected_objective,
                                          options.max_enumeration_bits);
        ASSERT_EQ(child, expected_child)
            << "case " << trial << ": " << a.ToString() << " x "
            << b.ToString();
        ASSERT_EQ(complement, expected_complement) << "case " << trial;
        ASSERT_EQ(actual_objective.num_evaluations(),
                  expected_objective.num_evaluations());
      }
    }
  }
}

}  // namespace
}  // namespace hido
