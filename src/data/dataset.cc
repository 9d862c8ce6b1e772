#include "data/dataset.h"

#include <limits>

#include "common/string_util.h"

namespace hido {

namespace {
const double kNaN = std::numeric_limits<double>::quiet_NaN();
}  // namespace

Dataset::Dataset(size_t num_cols)
    : columns_(num_cols), column_names_(num_cols) {}

Dataset::Dataset(std::vector<std::string> column_names)
    : columns_(column_names.size()),
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
  }
  return ds;
}

void Dataset::Set(size_t row, size_t col, double value) {
  HIDO_CHECK(row < num_rows_ && col < columns_.size());
  HIDO_CHECK_MSG(std::isfinite(value), "use SetMissing for absent cells");
  columns_[col][row] = value;
}

void Dataset::SetMissing(size_t row, size_t col) {
  HIDO_CHECK(row < num_rows_ && col < columns_.size());
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
  size_t present = 0;
  for (const double v : columns_[col]) present += !std::isnan(v);
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
    columns_[c].push_back(values[c]);
  }
  ++num_rows_;
}

std::string Dataset::ColumnName(size_t col) const {
  HIDO_CHECK(col < columns_.size());
  const std::string& name = column_names_[col];
  return name.empty() ? StrFormat("c%zu", col) : name;
}

void Dataset::SetColumnName(size_t col, std::string name) {
  HIDO_CHECK(col < columns_.size());
  column_names_[col] = std::move(name);
}

size_t Dataset::FindColumn(const std::string& name) const {
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (ColumnName(c) == name) return c;
  }
  return columns_.size();
}

void Dataset::SetLabels(std::vector<int32_t> labels) {
  HIDO_CHECK_MSG(labels.size() == num_rows_,
                 "labels.size()=%zu != num_rows=%zu", labels.size(),
                 num_rows_);
  labels_ = std::move(labels);
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

}  // namespace hido
