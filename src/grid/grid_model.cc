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

  Quantizer::Options qopts;
  qopts.num_ranges = options.phi;
  qopts.mode = options.mode;

  const size_t n = data.num_rows();
  const size_t d = data.num_cols();
  const size_t phi = options.phi;
  GridModel model;
  model.num_points_ = n;
  model.array_threshold_ = options.array_threshold == kAutoArrayThreshold
                               ? n / 32
                               : options.array_threshold;
  model.cells_.resize(d);
  model.containers_.resize(d * phi);

  std::vector<std::vector<double>> cuts(d);
  std::vector<double> col_min(d);
  std::vector<double> col_max(d);
  std::vector<size_t> array_containers(d, 0);
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
    std::vector<std::vector<uint32_t>> range_ids(phi);
    const std::vector<double>& column = data.Column(dim);
    for (size_t row = 0; row < n; ++row) {
      if (row % kPollStride == kPollStride - 1 && should_stop()) return;
      if (data.IsMissing(row, dim)) {
        cells[row] = kMissingCell;
        continue;
      }
      const uint32_t cell = Quantizer::CountCutsAtMost(fit.cuts, column[row]);
      cells[row] = cell;
      range_ids[cell].push_back(static_cast<uint32_t>(row));
    }
    // Rows were scanned ascending, so each range's ids arrive sorted and
    // the container choice is purely its cardinality vs. the threshold.
    for (uint32_t cell = 0; cell < phi; ++cell) {
      PostingContainer container = PostingContainer::FromIds(
          std::move(range_ids[cell]), n, model.array_threshold_);
      if (container.kind() == PostingContainer::Kind::kArray) {
        ++array_containers[dim];
      }
      model.containers_[dim * phi + cell] = std::move(container);
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

  size_t arrays = 0;
  for (const size_t count : array_containers) arrays += count;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("grid.builds").Add(1);
  registry.GetCounter("grid.points_indexed").Add(n);
  registry.GetCounter("grid.cells_indexed").Add(n * d);
  registry.GetCounter("grid.containers.array").Add(arrays);
  registry.GetCounter("grid.containers.bitmap").Add(d * phi - arrays);
  // Which counting kernel serves the bitmap legs of this grid's counts.
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

const PostingContainer& GridModel::Container(size_t dim,
                                             uint32_t cell) const {
  return containers_[IndexOf(dim, cell)];
}

size_t GridModel::RangeCardinality(size_t dim, uint32_t cell) const {
  return containers_[IndexOf(dim, cell)].cardinality();
}

double GridModel::RangeFraction(size_t dim, uint32_t cell) const {
  if (num_points_ == 0) return 0.0;
  return static_cast<double>(containers_[IndexOf(dim, cell)].cardinality()) /
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
