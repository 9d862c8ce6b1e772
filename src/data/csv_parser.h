#ifndef HIDO_DATA_CSV_PARSER_H_
#define HIDO_DATA_CSV_PARSER_H_

// The one CSV parser behind ReadCsv and ReadCsvEncoded. Callers outside
// src/data/ use those entry points (data/csv.h, data/encoding.h).
//
// The input is parsed one window at a time (see kCsvWindowBytes): in-memory
// text where it lies, a file or pipe in two reused buffers, the next read
// while the current window parses. Within a window, chunks of whole lines
// (see kCsvChunkBytes) run on the shared thread pool, and std::from_chars
// writes each value straight into its column, which grows by the window's
// rows. Window and chunk boundaries depend on the bytes alone and the
// first error in line order is the one reported, so the result is the same
// at any pool width and any window size.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "data/csv.h"
#include "data/encoding.h"

namespace hido {
namespace internal {

/// A parsed CSV file with the label column split off.
struct CsvTable {
  /// Trimmed header fields, label column included; empty without a header.
  std::vector<std::string> header;
  size_t width = 0;     ///< fields per line, label column included
  size_t num_rows = 0;  ///< data rows
  /// One column of num_rows values per field except the label column, in
  /// file order; a missing cell holds NaN.
  std::vector<std::vector<double>> columns;
  std::vector<int32_t> labels;  ///< one per row when a label column is set
  /// Encoding only: indices into `columns` of the columns that held a
  /// non-numeric field, ascending. Those columns hold dictionary codes.
  std::vector<size_t> categorical;
  /// Per entry of `categorical`: its sorted distinct trimmed fields.
  std::vector<std::vector<std::string>> dictionaries;
};

/// The names of `table`'s columns, taken from its header: every field but
/// the label column's. Without a header there are none, and Dataset names
/// each column "c<column index>", counted after the label column is
/// dropped. Both readers name their columns through this.
std::vector<std::string> TakeColumnNames(CsvTable& table, int label_column);

/// What a read parses: the file, pipe or FIFO at `*path`, or with no path
/// the in-memory `text`.
struct CsvSource {
  const std::string* path = nullptr;  ///< the input to read, or null
  std::string_view text;              ///< the input when `path` is null
};

/// Parses `source` under `options` in windows of `window_bytes`, a
/// multiple of kCsvChunkBytes. With `encode_categorical`, a column holding
/// any field that is neither a number nor a missing token is
/// ordinal-encoded instead of failing the read.
Result<CsvTable> ParseCsv(const CsvSource& source,
                          const CsvReadOptions& options,
                          bool encode_categorical, size_t window_bytes);

/// ReadCsv (or ReadCsvString, without a path) in windows of
/// `window_bytes`; tests read at small windows so that inputs of a few MiB
/// span several.
Result<Dataset> ReadCsvWindowed(const CsvSource& source,
                                const CsvReadOptions& options,
                                size_t window_bytes);

/// ReadCsvEncoded (or ReadCsvEncodedString) in windows of `window_bytes`.
Result<EncodedDataset> ReadCsvEncodedWindowed(const CsvSource& source,
                                              const CsvReadOptions& options,
                                              size_t window_bytes);

}  // namespace internal
}  // namespace hido

#endif  // HIDO_DATA_CSV_PARSER_H_
