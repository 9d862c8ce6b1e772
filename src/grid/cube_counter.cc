#include "grid/cube_counter.h"

#include <algorithm>

#include "common/bitset_kernels.h"
#include "common/macros.h"

namespace hido {

namespace {

// Debug-mode validation of a condition list.
void ValidateConditions(const GridModel& grid,
                        const std::vector<DimRange>& conditions) {
  HIDO_CHECK(!conditions.empty());
#ifndef NDEBUG
  for (size_t i = 0; i < conditions.size(); ++i) {
    HIDO_CHECK(conditions[i].dim < grid.num_dims());
    HIDO_CHECK(conditions[i].cell < grid.phi());
    for (size_t j = i + 1; j < conditions.size(); ++j) {
      HIDO_CHECK_MSG(conditions[i].dim != conditions[j].dim,
                     "duplicate dimension %u in cube", conditions[i].dim);
    }
  }
#else
  HIDO_UNUSED(grid);
#endif
}

}  // namespace

CubeCounter::Stats& CubeCounter::Stats::operator+=(const Stats& other) {
  queries += other.queries;
  bitset_counts += other.bitset_counts;
  posting_counts += other.posting_counts;
  return *this;
}

CubeCounter::CubeCounter(const GridModel& grid)
    : CubeCounter(grid, Options()) {}

CubeCounter::CubeCounter(const GridModel& grid, const Options& options)
    : grid_(&grid), options_(options) {}

size_t CubeCounter::Count(const std::vector<DimRange>& conditions) {
  ValidateConditions(*grid_, conditions);
  ++stats_.queries;
  const CountingStrategy strategy =
      options_.strategy == CountingStrategy::kAuto ? Choose(conditions)
                                                   : options_.strategy;
  if (strategy == CountingStrategy::kBitset) {
    ++stats_.bitset_counts;
    return CountBitset(conditions);
  }
  ++stats_.posting_counts;
  if (conditions.size() == 1) {
    return grid_->RangeCardinality(conditions[0].dim, conditions[0].cell);
  }
  return IntersectIds(conditions).size();
}

std::vector<uint32_t> CubeCounter::CoveredPoints(
    const std::vector<DimRange>& conditions) const {
  ValidateConditions(*grid_, conditions);
  return IntersectIds(conditions);
}

CountingStrategy CubeCounter::Choose(
    const std::vector<DimRange>& conditions) const {
  if (conditions.size() == 1) return CountingStrategy::kPostingList;
  // Container representation folds into the strategy choice: an array
  // container is sparse by construction, and probing its few ids against
  // the other conditions beats streaming every bitmap word. With all
  // bitmaps, posting intersection still wins when the smallest range is
  // tiny relative to the k * N/64 words the bitset path always touches.
  size_t smallest = grid_->num_points();
  bool any_array = false;
  for (const DimRange& c : conditions) {
    const PostingContainer& container = grid_->Container(c.dim, c.cell);
    smallest = std::min(smallest, container.cardinality());
    any_array |= container.kind() == PostingContainer::Kind::kArray;
  }
  if (any_array) return CountingStrategy::kPostingList;
  const size_t words = grid_->num_points() / 64 + 1;
  return (smallest * 4 < words) ? CountingStrategy::kPostingList
                                : CountingStrategy::kBitset;
}

size_t CubeCounter::CountBitset(const std::vector<DimRange>& conditions) {
  if (conditions.size() == 1) {
    return grid_->RangeCardinality(conditions[0].dim, conditions[0].cell);
  }
  // kAuto sends only all-bitmap cubes here, and those are counted straight
  // from the containers' words. A forced kBitset must handle array
  // containers too: each is materialized into a scratch bitmap first.
  sources_.clear();
  size_t materialized = 0;
  size_t num_words = 0;  // the same for every bitmap over the grid's points
  for (const DimRange& c : conditions) {
    const PostingContainer& container = grid_->Container(c.dim, c.cell);
    const DynamicBitset* bits = nullptr;
    if (container.kind() == PostingContainer::Kind::kBitmap) {
      bits = &container.bitmap();
    } else {
      if (materialized == scratch_.size()) {
        scratch_.emplace_back(grid_->num_points());
      }
      container.MaterializeInto(scratch_[materialized]);
      bits = &scratch_[materialized++];
    }
    sources_.push_back(bits->words());
    num_words = bits->num_words();
  }
  return ActiveKernels().and_count_many(sources_.data(), sources_.size(),
                                        num_words);
}

std::vector<uint32_t> CubeCounter::IntersectIds(
    const std::vector<DimRange>& conditions) const {
  // Intersect starting from the smallest container: its ids seed the
  // candidate list, and every other container is probed via Contains
  // (O(1) on bitmaps, binary search on arrays).
  std::vector<const PostingContainer*> containers;
  containers.reserve(conditions.size());
  for (const DimRange& c : conditions) {
    containers.push_back(&grid_->Container(c.dim, c.cell));
  }
  std::sort(containers.begin(), containers.end(),
            [](const PostingContainer* a, const PostingContainer* b) {
              return a->cardinality() < b->cardinality();
            });
  std::vector<uint32_t> current = containers.front()->ToIds();
  for (size_t i = 1; i < containers.size() && !current.empty(); ++i) {
    const PostingContainer& other = *containers[i];
    size_t kept = 0;
    for (uint32_t id : current) {
      if (other.Contains(id)) current[kept++] = id;
    }
    current.resize(kept);
  }
  return current;
}

}  // namespace hido
