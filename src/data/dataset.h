#ifndef HIDO_DATA_DATASET_H_
#define HIDO_DATA_DATASET_H_

// In-memory numeric dataset.
//
// Column-major storage (the grid model consumes whole columns when computing
// equi-depth breakpoints), with optional integer class labels (used only for
// evaluation, never by the detection algorithms themselves).
//
// Missing values: the paper notes that sparse low-dimensional projections
// can be mined even when records have missing attributes. A missing cell
// has one representation, NaN in its value slot, and a present cell never
// holds NaN (Set takes finite values only), so a cell is missing exactly
// when it is NaN, whatever its sign or payload.

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/macros.h"

namespace hido {

/// A fixed-width table of doubles with optional missing cells and labels.
class Dataset {
 public:
  /// Creates an empty dataset with `num_cols` columns and no rows.
  explicit Dataset(size_t num_cols = 0);

  /// Creates a dataset with the given column names (width = names.size()).
  explicit Dataset(std::vector<std::string> column_names);

  Dataset(const Dataset&) = default;
  Dataset& operator=(const Dataset&) = default;
  Dataset(Dataset&&) = default;
  Dataset& operator=(Dataset&&) = default;

  /// Builds a dataset from row-major data. All rows must have equal width.
  static Dataset FromRows(const std::vector<std::vector<double>>& rows,
                          std::vector<std::string> column_names = {});

  /// Builds a dataset from columns of `num_rows` values each, taken by
  /// move. NaN cells are the missing ones.
  static Dataset FromColumns(size_t num_rows,
                             std::vector<std::vector<double>> columns,
                             std::vector<std::string> column_names = {});

  size_t num_rows() const { return num_rows_; }       ///< rows n
  size_t num_cols() const { return columns_.size(); }  ///< attributes d

  /// Cell value. Precondition: in range and not missing.
  double Get(size_t row, size_t col) const {
    HIDO_DCHECK(row < num_rows_ && col < columns_.size());
    HIDO_DCHECK(!IsMissing(row, col));
    return columns_[col][row];
  }

  /// Cell value, or `fallback` when the cell is missing.
  double GetOr(size_t row, size_t col, double fallback) const {
    return IsMissing(row, col) ? fallback : columns_[col][row];
  }

  /// Overwrites a cell with a finite value (so it is present).
  void Set(size_t row, size_t col, double value);

  /// Marks a cell missing.
  void SetMissing(size_t row, size_t col);

  /// Was this cell missing in the source data? (Is it NaN?)
  bool IsMissing(size_t row, size_t col) const {
    HIDO_DCHECK(row < num_rows_ && col < columns_.size());
    return std::isnan(columns_[col][row]);
  }

  /// True when any cell of the dataset is missing.
  bool HasMissing() const;

  /// Number of non-missing cells in column `col`.
  size_t PresentCount(size_t col) const;

  /// Read-only access to a full column (missing cells hold NaN).
  const std::vector<double>& Column(size_t col) const {
    HIDO_CHECK(col < columns_.size());
    return columns_[col];
  }

  /// Copies one row (missing cells hold NaN).
  std::vector<double> Row(size_t row) const;

  /// Appends a row; `values.size()` must equal num_cols(). NaN entries are
  /// missing cells.
  void AppendRow(const std::vector<double>& values);

  // --- Column names ------------------------------------------------------

  /// Name of column `col` ("c<col>" when never set or set empty).
  std::string ColumnName(size_t col) const;

  /// Replaces the name of column `col`.
  void SetColumnName(size_t col, std::string name);

  /// Index of the first column whose ColumnName is `name`, or num_cols()
  /// when none is.
  size_t FindColumn(const std::string& name) const;

  // --- Labels (evaluation only) ------------------------------------------

  bool has_labels() const { return !labels_.empty(); }  ///< ground truth?

  /// Class label of `row`. Precondition: has_labels().
  int32_t Label(size_t row) const {
    HIDO_CHECK(has_labels());
    HIDO_DCHECK(row < num_rows_);
    return labels_[row];
  }

  /// Installs labels; size must equal num_rows().
  void SetLabels(std::vector<int32_t> labels);

  /// Ground-truth labels (empty when unlabeled); 1 = outlier.
  const std::vector<int32_t>& labels() const { return labels_; }

  // --- Projections of the table ------------------------------------------

  /// Dataset restricted to the given rows (labels and names carried over).
  Dataset SelectRows(const std::vector<size_t>& rows) const;

 private:
  size_t num_rows_ = 0;
  std::vector<std::vector<double>> columns_;
  std::vector<std::string> column_names_;  // empty: the default name
  std::vector<int32_t> labels_;
};

}  // namespace hido

#endif  // HIDO_DATA_DATASET_H_
