#ifndef HIDO_DATA_ENCODING_H_
#define HIDO_DATA_ENCODING_H_

// Categorical-attribute handling. The paper's datasets "were cleaned in
// order to take care of categorical and missing attributes"; this module is
// that cleaning step: CSV columns with non-numeric values are detected and
// ordinal-encoded (distinct values -> 0..V-1 by sorted order), so real
// mixed-type files can feed the detector directly.
//
// Note on semantics: the grid discretizes encoded columns like any other.
// Ordinal codes carry no distance meaning, but the subspace method only
// needs *cells*; with heavy ties the equi-depth ranges degenerate toward
// one-cell-per-value groups, and the empirical-marginals expectation model
// (ExpectationModel::kEmpiricalMarginals) compensates for their uneven
// sizes — prefer it on strongly categorical data.

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "data/csv.h"
#include "data/dataset.h"

namespace hido {

/// How one categorical column was encoded.
struct CategoricalMapping {
  size_t column = 0;  ///< column index in the returned dataset
  /// Sorted distinct values; the code of values[i] is i.
  std::vector<std::string> values;
};

/// A dataset plus the categorical mappings applied to it.
struct EncodedDataset {
  Dataset data;  ///< all-numeric rows
  std::vector<CategoricalMapping> categorical;  ///< per-encoded-column maps

  /// Looks up the original string for an encoded cell; "" when `column` is
  /// not categorical or the code is out of range.
  std::string Decode(size_t column, double code) const;
};

/// Reads a CSV like ReadCsv, but instead of failing on non-numeric fields,
/// treats every column containing one as categorical and ordinal-encodes
/// it. Missing tokens stay missing in either column kind. Options'
/// label_column semantics match ReadCsv (labels must still be integers).
/// A column whose first non-numeric field comes after the first window has
/// its earlier windows read again; a pipe or FIFO is therefore copied, as
/// it is read, into an unlinked temporary file (in /tmp).
Result<EncodedDataset> ReadCsvEncoded(const std::string& path,
                                      const CsvReadOptions& options = {});

/// Same, parsing from a string.
Result<EncodedDataset> ReadCsvEncodedString(std::string_view text,
                                            const CsvReadOptions& options = {});

}  // namespace hido

#endif  // HIDO_DATA_ENCODING_H_
