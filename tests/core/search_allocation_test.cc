// Allocation budget of the searches' hot paths.
//
// One GA generation and one local-search step must not allocate per
// evaluation: every operator works in per-worker buffers that are reused
// from call to call. This executable replaces the global operator new to
// count heap allocations, runs each search on a small seeded grid at one
// thread, and holds the allocations to fewer than 0.5 per evaluation, set
// up and tear down included. List-based operators, which built their
// position lists, condition lists and children afresh on every call,
// allocated 3 to 5 times per evaluation on these runs.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>  // hido-lint: allow(no-naked-new)

#include <gtest/gtest.h>

#include "core/evolutionary_search.h"
#include "core/local_search.h"
#include "data/generators/synthetic.h"
#include "ensemble/ensemble_detector.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

void* CountedMalloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) std::abort();
  return p;
}

}  // namespace

// The counting replacements; out of memory aborts the test. Both forms a
// sized or unsized operator delete may release are replaced (the nothrow
// one serves std::stable_sort's buffer), so every pair is malloc/free,
// also under a sanitizer that checks the pairing. None is inlined:
// inlined into a caller, the malloc() or free() inside would pair with
// that caller's new- or delete-expression and trip -Wmismatched-new-delete.
__attribute__((noinline)) void* operator new(  // hido-lint: allow(no-naked-new)
    std::size_t size) {
  return CountedMalloc(size);
}

__attribute__((noinline)) void* operator new(  // hido-lint: allow(no-naked-new)
    std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}

__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p,
                                               std::size_t) noexcept {
  std::free(p);
}

namespace hido {
namespace {

constexpr double kMaxAllocationsPerEvaluation = 0.5;

uint64_t Allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

void ExpectWithinBudget(const char* what, uint64_t allocations,
                        uint64_t evaluations) {
  ASSERT_GT(evaluations, 0u) << what;
  const double per_evaluation = static_cast<double>(allocations) /
                                static_cast<double>(evaluations);
  std::printf("%s: %llu allocations for %llu evaluations (%.3f each)\n",
              what, static_cast<unsigned long long>(allocations),
              static_cast<unsigned long long>(evaluations), per_evaluation);
  EXPECT_LT(per_evaluation, kMaxAllocationsPerEvaluation) << what;
}

GridModel MakeGrid() {
  GridModel::Options options;
  options.phi = 6;
  return GridModel::Build(GenerateUniform(2000, 20, 7), options);
}

TEST(SearchAllocationTest, EvolutionarySearchAtOneThread) {
  const GridModel grid = MakeGrid();
  SparsityObjective objective(grid);
  EvolutionaryOptions options;
  options.target_dim = 3;
  options.population_size = 60;
  options.max_generations = 40;
  options.stagnation_generations = 0;
  options.convergence_threshold = 1.01;  // run every generation
  options.num_threads = 1;
  options.seed = 11;
  const uint64_t before = Allocations();
  const EvolutionResult result = EvolutionarySearch(objective, options);
  const uint64_t allocations = Allocations() - before;
  ASSERT_EQ(result.stats.generations, options.max_generations);
  ExpectWithinBudget("ga", allocations, result.stats.evaluations);
}

class SearchAllocationLocal
    : public ::testing::TestWithParam<LocalSearchMethod> {};

TEST_P(SearchAllocationLocal, LocalSearchAtOneThread) {
  const GridModel grid = MakeGrid();
  SparsityObjective objective(grid);
  LocalSearchOptions options;
  options.method = GetParam();
  options.target_dim = 3;
  options.max_evaluations = 20000;
  options.seed = 13;
  const uint64_t before = Allocations();
  const LocalSearchResult result = LocalSearch(objective, options);
  const uint64_t allocations = Allocations() - before;
  ExpectWithinBudget("local search", allocations, result.stats.evaluations);
}

INSTANTIATE_TEST_SUITE_P(
    Methods, SearchAllocationLocal,
    ::testing::Values(LocalSearchMethod::kRandomSearch,
                      LocalSearchMethod::kHillClimbing,
                      LocalSearchMethod::kSimulatedAnnealing),
    [](const ::testing::TestParamInfo<LocalSearchMethod>& info) {
      switch (info.param) {
        case LocalSearchMethod::kRandomSearch:
          return "Random";
        case LocalSearchMethod::kHillClimbing:
          return "HillClimbing";
        case LocalSearchMethod::kSimulatedAnnealing:
          return "Annealing";
      }
      return "Unknown";
    });

TEST(SearchAllocationTest, RandomSubspaceEnsembleMember) {
  // E = 1: the member's evaluations against the whole Detect, grid build,
  // point scoring and combination included.
  const Dataset data = GenerateUniform(2000, 20, 7);
  ensemble::EnsembleConfig config;
  config.base.phi = 6;
  config.base.target_dim = 3;
  config.base.seed = 17;
  config.base.num_threads = 1;
  config.ensemble.num_members = 1;
  config.ensemble.mix = {ensemble::MemberKind::kRandomSubspace};
  config.ensemble.subspace_evaluations = 20000;
  const ensemble::EnsembleDetector detector(config);
  const uint64_t before = Allocations();
  const ensemble::EnsembleDetectionResult result = detector.Detect(data);
  const uint64_t allocations = Allocations() - before;
  ASSERT_EQ(result.members.size(), 1u);
  ExpectWithinBudget("random-subspace", allocations,
                     result.members[0].evaluations);
}

}  // namespace
}  // namespace hido
