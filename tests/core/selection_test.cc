#include "core/genetic/selection.h"

#include <map>

#include <gtest/gtest.h>

namespace hido {
namespace {

Individual MakeIndividual(size_t dim, double sparsity) {
  Individual ind;
  ind.projection = Projection(10);
  ind.projection.Specify(dim, 0);
  ind.sparsity = sparsity;
  ind.count = 1;
  ind.feasible = true;
  return ind;
}

std::vector<Individual> Select(const std::vector<Individual>& population,
                               Rng& rng) {
  std::vector<Individual> selected;
  RankRouletteSelection(population, rng, &selected);
  return selected;
}

TEST(RankSelectionWeightsTest, PaperFormula) {
  // Weight of rank r (1-based) is p - r: best gets p-1, worst gets 0.
  const std::vector<double> w = RankSelectionWeights(4);
  EXPECT_EQ(w, (std::vector<double>{3.0, 2.0, 1.0, 0.0}));
}

TEST(RankRouletteSelectionTest, PreservesPopulationSize) {
  std::vector<Individual> population;
  for (size_t i = 0; i < 10; ++i) {
    population.push_back(MakeIndividual(i, -static_cast<double>(i)));
  }
  Rng rng(1);
  const std::vector<Individual> selected =
      Select(population, rng);
  EXPECT_EQ(selected.size(), 10u);
}

TEST(RankRouletteSelectionTest, WorstNeverSelected) {
  // The paper's weights give the last rank weight 0.
  std::vector<Individual> population;
  for (size_t i = 0; i < 5; ++i) {
    population.push_back(MakeIndividual(i, -static_cast<double>(i)));
  }
  // Worst = sparsity 0 at dim 0.
  Rng rng(2);
  for (int round = 0; round < 50; ++round) {
    const std::vector<Individual> selected =
        Select(population, rng);
    for (const Individual& ind : selected) {
      EXPECT_NE(ind.sparsity, 0.0);
    }
  }
}

TEST(RankRouletteSelectionTest, BiasTowardMostNegative) {
  std::vector<Individual> population;
  for (size_t i = 0; i < 10; ++i) {
    population.push_back(MakeIndividual(i, -static_cast<double>(i)));
  }
  Rng rng(3);
  std::map<double, int> counts;
  for (int round = 0; round < 400; ++round) {
    for (const Individual& ind : Select(population, rng)) {
      counts[ind.sparsity] += 1;
    }
  }
  // Best (sparsity -9, rank 1, weight 9) should be picked ~9x as often as
  // rank 9 (weight 1).
  const double ratio = static_cast<double>(counts[-9.0]) /
                       static_cast<double>(counts[-1.0]);
  EXPECT_GT(ratio, 6.0);
  EXPECT_LT(ratio, 13.0);
}

TEST(RankRouletteSelectionTest, InfeasibleRankLast) {
  std::vector<Individual> population;
  population.push_back(MakeIndividual(0, -1.0));
  Individual infeasible;
  infeasible.projection = Projection(10);
  infeasible.feasible = false;  // sparsity stays +inf
  population.push_back(infeasible);
  Rng rng(4);
  for (int round = 0; round < 50; ++round) {
    for (const Individual& ind :
         Select(population, rng)) {
      EXPECT_TRUE(ind.feasible);  // weight 0 for the infeasible string
    }
  }
}

TEST(RankRouletteSelectionDeathTest, TooSmallPopulation) {
  std::vector<Individual> population;
  population.push_back(MakeIndividual(0, -1.0));
  Rng rng(5);
  EXPECT_DEATH(Select(population, rng), "population");
}

}  // namespace
}  // namespace hido
