#include "core/local_search.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/timer.h"

namespace hido {

void LocalSearchNeighbor(const Projection& current, size_t phi, Rng& rng,
                         Projection* next) {
  *next = current;
  const size_t k = next->Dimensionality();
  HIDO_CHECK(k >= 1);
  // The j-th specified dimension, ascending, scanned from the string.
  auto nth_specified = [&](size_t j) {
    size_t dim = 0;
    while (!next->IsSpecified(dim) || j-- != 0) ++dim;
    return dim;
  };
  const bool can_move = k < next->num_dims();
  if (can_move && rng.Bernoulli(0.5)) {
    // Type I: relocate one condition to an unused dimension.
    size_t new_dim = rng.UniformIndex(next->num_dims());
    while (next->IsSpecified(new_dim)) {
      new_dim = rng.UniformIndex(next->num_dims());
    }
    const size_t old_dim = nth_specified(rng.UniformIndex(k));
    next->Unspecify(old_dim);
    next->Specify(new_dim, static_cast<uint32_t>(rng.UniformIndex(phi)));
  } else {
    // Type II: flip one range.
    const size_t dim = nth_specified(rng.UniformIndex(k));
    next->Specify(dim, static_cast<uint32_t>(rng.UniformIndex(phi)));
  }
}

namespace {

// Shared run state: evaluates candidates, feeds the best set, and enforces
// the evaluation budget and the stop token.
class Driver {
 public:
  Driver(SparsityObjective& objective, const LocalSearchOptions& options,
         BestSet& best)
      : objective_(objective), options_(options), best_(best) {}

  // True while evaluations remain and no stop has fired. Polls the token
  // once per kStopPollStride evaluations, at the first call that reaches
  // the next poll point.
  bool BudgetLeft() {
    if (!stats_.completed ||
        stats_.evaluations >= options_.max_evaluations) {
      return false;
    }
    if (options_.stop != nullptr && stats_.evaluations >= next_poll_) {
      next_poll_ = stats_.evaluations + LocalSearchOptions::kStopPollStride;
      if (options_.stop->ShouldStop()) stats_.completed = false;
    }
    return stats_.completed;
  }

  // Evaluates `candidate` (must be k-dimensional), offers it to the best
  // set, and returns its sparsity.
  double Evaluate(const Projection& candidate) {
    HIDO_DCHECK(candidate.Dimensionality() == options_.target_dim);
    const CubeEvaluation eval = objective_.Evaluate(candidate);
    ++stats_.evaluations;
    if (eval.count > 0 && best_.WouldAccept(eval.sparsity)) {
      scored_.projection = candidate;
      scored_.count = eval.count;
      scored_.sparsity = eval.sparsity;
      best_.Offer(scored_);
    }
    return eval.sparsity;
  }

  void RandomNeighbor(const Projection& current, Projection& next, Rng& rng) {
    LocalSearchNeighbor(current, objective_.grid().phi(), rng, &next);
  }

  // Overwrites `solution` with a uniformly random k-dimensional string.
  void RandomSolution(Projection& solution, Rng& rng) {
    solution.Randomize(options_.target_dim, objective_.grid().phi(), rng,
                       &dims_);
  }

  // A string over the grid's dimensions, for the methods' reused buffers.
  Projection NewSolution() const {
    return Projection(objective_.grid().num_dims());
  }

  LocalSearchStats& stats() { return stats_; }

 private:
  SparsityObjective& objective_;
  const LocalSearchOptions& options_;
  BestSet& best_;
  LocalSearchStats stats_;
  uint64_t next_poll_ = 0;  // evaluation count of the next stop poll
  // Reused buffers: the offered candidate and RandomSolution's dimensions.
  ScoredProjection scored_;
  std::vector<size_t> dims_;
};

void RunRandomSearch(Driver& driver, Rng& rng) {
  Projection candidate = driver.NewSolution();
  while (driver.BudgetLeft()) {
    driver.RandomSolution(candidate, rng);
    driver.Evaluate(candidate);
  }
}

void RunHillClimbing(Driver& driver, const LocalSearchOptions& options,
                     Rng& rng) {
  Projection current = driver.NewSolution();
  Projection neighbor = driver.NewSolution();
  while (driver.BudgetLeft()) {
    driver.RandomSolution(current, rng);
    double current_sparsity = driver.Evaluate(current);
    size_t stall = 0;
    while (driver.BudgetLeft() && stall < options.stall_limit) {
      driver.RandomNeighbor(current, neighbor, rng);
      const double sparsity = driver.Evaluate(neighbor);
      if (sparsity < current_sparsity) {
        std::swap(current, neighbor);
        current_sparsity = sparsity;
        stall = 0;
        ++driver.stats().accepted_moves;
      } else {
        ++stall;
      }
    }
    ++driver.stats().restarts;
  }
}

void RunSimulatedAnnealing(Driver& driver,
                           const LocalSearchOptions& options, Rng& rng) {
  if (!driver.BudgetLeft()) return;
  Projection current = driver.NewSolution();
  Projection neighbor = driver.NewSolution();
  driver.RandomSolution(current, rng);
  double current_sparsity = driver.Evaluate(current);
  double temperature = options.initial_temperature;
  while (driver.BudgetLeft()) {
    driver.RandomNeighbor(current, neighbor, rng);
    const double sparsity = driver.Evaluate(neighbor);
    const double delta = sparsity - current_sparsity;  // < 0 is better
    bool accept = delta <= 0.0;
    if (!accept && temperature > 1e-9) {
      accept = rng.Bernoulli(std::exp(-delta / temperature));
    }
    if (accept) {
      std::swap(current, neighbor);
      current_sparsity = sparsity;
      ++driver.stats().accepted_moves;
    }
    temperature *= options.cooling;
    // Re-heat when frozen so long budgets are not wasted in place.
    if (temperature < 1e-6) {
      temperature = options.initial_temperature;
      driver.RandomSolution(current, rng);
      if (driver.BudgetLeft()) {
        current_sparsity = driver.Evaluate(current);
      }
      ++driver.stats().restarts;
    }
  }
}

}  // namespace

LocalSearchResult LocalSearch(SparsityObjective& objective,
                              const LocalSearchOptions& options) {
  HIDO_CHECK(options.target_dim >= 1);
  HIDO_CHECK_MSG(options.target_dim <= objective.grid().num_dims(),
                 "target_dim %zu exceeds dimensionality %zu",
                 options.target_dim, objective.grid().num_dims());
  HIDO_CHECK(options.num_projections >= 1);
  HIDO_CHECK(options.max_evaluations >= 1);
  HIDO_CHECK(options.cooling > 0.0 && options.cooling < 1.0);

  StopWatch watch;
  BestSet best(options.num_projections);
  Driver driver(objective, options, best);
  Rng rng(options.seed);

  switch (options.method) {
    case LocalSearchMethod::kRandomSearch:
      RunRandomSearch(driver, rng);
      break;
    case LocalSearchMethod::kHillClimbing:
      RunHillClimbing(driver, options, rng);
      break;
    case LocalSearchMethod::kSimulatedAnnealing:
      RunSimulatedAnnealing(driver, options, rng);
      break;
  }

  LocalSearchResult result;
  result.best = best.Sorted();
  result.stats = driver.stats();
  result.stats.seconds = watch.ElapsedSeconds();
  return result;
}

}  // namespace hido
