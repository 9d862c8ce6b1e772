#include "grid/cube_counter.h"

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
  return *this;
}

CubeCounter::CubeCounter(const GridModel& grid) : grid_(&grid) {}

size_t CubeCounter::Count(const std::vector<DimRange>& conditions) {
  ValidateConditions(*grid_, conditions);
  ++stats_.queries;
  if (conditions.size() == 1) {
    return grid_->RangeCardinality(conditions[0].dim, conditions[0].cell);
  }
  sources_.clear();
  size_t num_words = 0;  // the same for every bitmap over the grid's points
  for (const DimRange& c : conditions) {
    const DynamicBitset& bits = grid_->RangeBits(c.dim, c.cell);
    sources_.push_back(bits.words());
    num_words = bits.num_words();
  }
  return ActiveKernels().and_count_many(sources_.data(), sources_.size(),
                                        num_words);
}

std::vector<uint32_t> CubeCounter::CoveredPoints(
    const std::vector<DimRange>& conditions) const {
  ValidateConditions(*grid_, conditions);
  DynamicBitset covered =
      grid_->RangeBits(conditions[0].dim, conditions[0].cell);
  for (size_t i = 1; i < conditions.size(); ++i) {
    covered.AndWith(grid_->RangeBits(conditions[i].dim, conditions[i].cell));
  }
  std::vector<uint32_t> ids;
  covered.AppendSetBits(ids);
  return ids;
}

}  // namespace hido
