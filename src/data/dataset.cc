#include "data/dataset.h"

#include <limits>

#include "common/string_util.h"

namespace hido {

namespace {
const double kNaN = std::numeric_limits<double>::quiet_NaN();
}  // namespace

Dataset::Dataset(size_t num_cols)
    : columns_(num_cols), missing_(num_cols), column_names_(num_cols) {}

Dataset::Dataset(std::vector<std::string> column_names)
    : columns_(column_names.size()),
      missing_(column_names.size()),
      column_names_(std::move(column_names)) {}

Dataset Dataset::FromRows(const std::vector<std::vector<double>>& rows,
                          std::vector<std::string> column_names) {
  const size_t width = rows.empty()
                           ? column_names.size()
                           : rows.front().size();
  if (!column_names.empty()) {
    HIDO_CHECK_MSG(column_names.size() == width,
                   "column_names.size()=%zu but row width=%zu",
                   column_names.size(), width);
  }
  Dataset ds(width);
  if (!column_names.empty()) {
    ds.column_names_ = std::move(column_names);
  }
  for (const auto& row : rows) {
    HIDO_CHECK_MSG(row.size() == width, "ragged rows: %zu vs %zu", row.size(),
                   width);
    ds.AppendRow(row);
  }
  return ds;
}

Dataset Dataset::FromColumns(size_t num_rows,
                             std::vector<std::vector<double>> columns,
                             std::vector<std::string> column_names) {
  if (!column_names.empty()) {
    HIDO_CHECK_MSG(column_names.size() == columns.size(),
                   "column_names.size()=%zu but %zu columns",
                   column_names.size(), columns.size());
  }
  Dataset ds(columns.size());
  if (!column_names.empty()) {
    ds.column_names_ = std::move(column_names);
  }
  ds.num_rows_ = num_rows;
  for (size_t c = 0; c < columns.size(); ++c) {
    HIDO_CHECK_MSG(columns[c].size() == num_rows,
                   "column %zu has %zu values, expected %zu", c,
                   columns[c].size(), num_rows);
    ds.columns_[c] = std::move(columns[c]);
    std::vector<double>& values = ds.columns_[c];
    for (size_t r = 0; r < num_rows; ++r) {
      if (std::isnan(values[r])) {
        ds.EnsureMissingMask(c);
        ds.missing_[c][r] = 1;
        values[r] = kNaN;
      }
    }
  }
  return ds;
}

void Dataset::Set(size_t row, size_t col, double value) {
  HIDO_CHECK(row < num_rows_ && col < columns_.size());
  HIDO_CHECK_MSG(std::isfinite(value), "use SetMissing for absent cells");
  columns_[col][row] = value;
  if (!missing_[col].empty()) {
    missing_[col][row] = 0;
  }
}

void Dataset::SetMissing(size_t row, size_t col) {
  HIDO_CHECK(row < num_rows_ && col < columns_.size());
  EnsureMissingMask(col);
  missing_[col][row] = 1;
  columns_[col][row] = kNaN;
}

bool Dataset::HasMissing() const {
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (PresentCount(c) != num_rows_) return true;
  }
  return false;
}

size_t Dataset::PresentCount(size_t col) const {
  HIDO_CHECK(col < columns_.size());
  if (missing_[col].empty()) return num_rows_;
  size_t present = 0;
  for (uint8_t m : missing_[col]) present += (m == 0);
  return present;
}

std::vector<double> Dataset::Row(size_t row) const {
  HIDO_CHECK(row < num_rows_);
  std::vector<double> out(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    out[c] = columns_[c][row];
  }
  return out;
}

void Dataset::AppendRow(const std::vector<double>& values) {
  HIDO_CHECK_MSG(values.size() == columns_.size(),
                 "row width %zu != dataset width %zu", values.size(),
                 columns_.size());
  HIDO_CHECK_MSG(labels_.empty(),
                 "cannot AppendRow after labels were installed");
  for (size_t c = 0; c < columns_.size(); ++c) {
    const double v = values[c];
    if (std::isnan(v)) {
      EnsureMissingMask(c);
      columns_[c].push_back(kNaN);
      missing_[c].push_back(1);
    } else {
      columns_[c].push_back(v);
      if (!missing_[c].empty()) {
        missing_[c].push_back(0);
      }
    }
  }
  ++num_rows_;
}

size_t Dataset::AppendZeroRows(size_t count) {
  HIDO_CHECK_MSG(labels_.empty(),
                 "cannot AppendZeroRows after labels were installed");
  const size_t first = num_rows_;
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].resize(num_rows_ + count, 0.0);
    if (!missing_[c].empty()) {
      missing_[c].resize(num_rows_ + count, 0);
    }
  }
  num_rows_ += count;
  return first;
}

const std::string& Dataset::ColumnName(size_t col) const {
  HIDO_CHECK(col < columns_.size());
  if (column_names_[col].empty()) {
    // Lazily materialize a default name; const_cast is confined here.
    auto* self = const_cast<Dataset*>(this);
    self->column_names_[col] = StrFormat("c%zu", col);
  }
  return column_names_[col];
}

void Dataset::SetColumnName(size_t col, std::string name) {
  HIDO_CHECK(col < columns_.size());
  column_names_[col] = std::move(name);
}

size_t Dataset::FindColumn(const std::string& name) const {
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (column_names_[c] == name) return c;
  }
  return columns_.size();
}

void Dataset::SetLabels(std::vector<int32_t> labels) {
  HIDO_CHECK_MSG(labels.size() == num_rows_,
                 "labels.size()=%zu != num_rows=%zu", labels.size(),
                 num_rows_);
  labels_ = std::move(labels);
}

Dataset Dataset::SelectColumns(const std::vector<size_t>& cols) const {
  Dataset out(cols.size());
  out.num_rows_ = num_rows_;
  for (size_t i = 0; i < cols.size(); ++i) {
    const size_t c = cols[i];
    HIDO_CHECK(c < columns_.size());
    out.columns_[i] = columns_[c];
    out.missing_[i] = missing_[c];
    out.column_names_[i] = column_names_[c];
  }
  out.labels_ = labels_;
  return out;
}

Dataset Dataset::SelectRows(const std::vector<size_t>& rows) const {
  Dataset out(columns_.size());
  out.column_names_ = column_names_;
  for (size_t c = 0; c < columns_.size(); ++c) {
    out.columns_[c].reserve(rows.size());
  }
  for (size_t r : rows) {
    HIDO_CHECK(r < num_rows_);
    out.AppendRow(Row(r));
  }
  if (!labels_.empty()) {
    std::vector<int32_t> new_labels;
    new_labels.reserve(rows.size());
    for (size_t r : rows) new_labels.push_back(labels_[r]);
    out.SetLabels(std::move(new_labels));
  }
  return out;
}

void Dataset::EnsureMissingMask(size_t col) {
  if (missing_[col].empty()) {
    missing_[col].assign(num_rows_, 0);
  }
}

}  // namespace hido
