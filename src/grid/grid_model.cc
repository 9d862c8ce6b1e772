#include "grid/grid_model.h"

#include <atomic>
#include <string>
#include <utility>

#include "common/bitset_kernels.h"
#include "common/macros.h"
#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hido {

GridModel GridModel::Build(const Dataset& data, const Options& options) {
  Result<GridModel> built =
      Build(data, options, /*stop=*/nullptr, /*num_threads=*/1);
  return std::move(built).value();  // cannot fail without a token
}

Result<GridModel> GridModel::Build(const Dataset& data,
                                   const Options& options,
                                   const StopToken* stop,
                                   size_t num_threads) {
  // Indexing cost is rows * dims; poll every this many cells so a cancel
  // lands promptly even on one very long column.
  constexpr size_t kPollStride = 4096;

  const obs::TraceSpan span("grid_build");

  if (stop != nullptr && stop->ShouldStop()) {
    return StopStatus(*stop, "grid build");
  }
  HIDO_CHECK(data.num_rows() >= 1);
  HIDO_CHECK_MSG(options.phi <= kMaxPhi, "phi %zu exceeds the cap of %zu",
                 options.phi, kMaxPhi);

  Quantizer::Options qopts;
  qopts.num_ranges = options.phi;
  qopts.mode = options.mode;

  const size_t n = data.num_rows();
  const size_t d = data.num_cols();
  const size_t phi = options.phi;
  GridModel model;
  model.num_points_ = n;
  model.cells_.resize(d);
  model.range_bits_.resize(d * phi);
  model.range_cardinality_.resize(d * phi);

  std::vector<std::vector<double>> cuts(d);
  std::vector<double> col_min(d);
  std::vector<double> col_max(d);
  std::atomic<bool> stopped{false};
  const auto should_stop = [&] {
    if (stop == nullptr) return false;
    if (stopped.load(std::memory_order_relaxed) || stop->ShouldStop()) {
      stopped.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  };
  ParallelFor(d, num_threads, [&](size_t dim, size_t) {
    if (should_stop()) return;
    Quantizer::ColumnFit fit = Quantizer::FitColumn(data, dim, qopts);
    std::vector<uint32_t>& cells = model.cells_[dim];
    cells.resize(n);
    DynamicBitset* const bits = &model.range_bits_[dim * phi];
    for (size_t cell = 0; cell < phi; ++cell) bits[cell] = DynamicBitset(n);
    const std::vector<double>& column = data.Column(dim);
    for (size_t row = 0; row < n; ++row) {
      if (row % kPollStride == kPollStride - 1 && should_stop()) return;
      if (data.IsMissing(row, dim)) {
        cells[row] = kMissingCell;
        continue;
      }
      const uint32_t cell = Quantizer::CountCutsAtMost(fit.cuts, column[row]);
      cells[row] = cell;
      bits[cell].Set(row);
    }
    for (size_t cell = 0; cell < phi; ++cell) {
      model.range_cardinality_[dim * phi + cell] = bits[cell].Count();
    }
    cuts[dim] = std::move(fit.cuts);
    col_min[dim] = fit.min;
    col_max[dim] = fit.max;
  });
  if (stopped.load(std::memory_order_relaxed)) {
    return StopStatus(*stop, "grid build");
  }
  model.quantizer_ = Quantizer::FromCuts(qopts, std::move(cuts),
                                         std::move(col_min),
                                         std::move(col_max));

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("grid.builds").Add(1);
  registry.GetCounter("grid.points_indexed").Add(n);
  registry.GetCounter("grid.cells_indexed").Add(n * d);
  // Which counting kernel serves this grid's counts.
  // Published here (not in src/common, which cannot depend on obs) so the
  // gauge appears exactly when a counting workload exists.
  registry
      .GetGauge(std::string("cube.kernel.") +
                KernelKindName(ActiveKernelKind()))
      .Set(1);
  return model;
}

size_t GridModel::IndexOf(size_t dim, uint32_t cell) const {
  HIDO_CHECK(dim < cells_.size());
  HIDO_CHECK(cell < phi());
  return dim * phi() + cell;
}

const DynamicBitset& GridModel::RangeBits(size_t dim, uint32_t cell) const {
  return range_bits_[IndexOf(dim, cell)];
}

size_t GridModel::RangeCardinality(size_t dim, uint32_t cell) const {
  return range_cardinality_[IndexOf(dim, cell)];
}

double GridModel::RangeFraction(size_t dim, uint32_t cell) const {
  if (num_points_ == 0) return 0.0;
  return static_cast<double>(range_cardinality_[IndexOf(dim, cell)]) /
         static_cast<double>(num_points_);
}

bool GridModel::Covers(size_t row,
                       const std::vector<DimRange>& conditions) const {
  HIDO_CHECK(row < num_points_);
  for (const DimRange& cond : conditions) {
    HIDO_DCHECK(cond.dim < cells_.size());
    if (cells_[cond.dim][row] != cond.cell) return false;
  }
  return true;
}

}  // namespace hido
