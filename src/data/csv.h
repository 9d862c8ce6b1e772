#ifndef HIDO_DATA_CSV_H_
#define HIDO_DATA_CSV_H_

// CSV input/output so real datasets (e.g. the UCI files the paper used) can
// be dropped into the benchmarks in place of the bundled synthetic stand-ins.

#include <cstddef>
#include <string>
#include <string_view>

#include "common/run_control.h"
#include "common/status.h"
#include "data/dataset.h"

namespace hido {

/// Options for ReadCsv.
struct CsvReadOptions {
  char delimiter = ',';  ///< field separator
  /// Treat the first line as column names.
  bool has_header = true;
  /// Column index holding the class label, or -1 for none. The label column
  /// is removed from the numeric data and installed via Dataset::SetLabels.
  int label_column = -1;
  /// Skip blank lines instead of failing on them.
  bool skip_blank_lines = true;
  /// Reject fields longer than this many bytes — the usual symptom of a
  /// wrong delimiter or a binary file fed in by mistake. 0 disables.
  size_t max_field_bytes = 4096;
  /// Reject rows wider than this many columns. 0 disables.
  size_t max_columns = 65536;
  /// Cooperative cancellation (nullable; must outlive the read), polled
  /// every few thousand parsed lines. A fired token fails the read with
  /// kCancelled/kDeadlineExceeded — parsing is all-or-nothing, so there is
  /// no partial dataset to salvage. Shared by the numeric and the
  /// categorical-encoding ingest paths.
  const StopToken* stop = nullptr;
};

/// Bytes of input the reader holds at once, twice over: it parses one
/// window while it reads the next into a second buffer, and both buffers
/// are reused, so a read's memory is its columns plus these two windows.
/// A window starts at a line start and ends, for parsing, at its last line
/// end; the partial line after it opens the next window. A partial line
/// longer than half a window makes the next one twice its length, so a
/// single long line costs up to twice its length in windows: an input with
/// no '\n' at all (CR-only line ends, a binary file) grows both windows
/// toward the file's size before the field or column cap rejects its first
/// line.
inline constexpr size_t kCsvWindowBytes = size_t{8} << 20;

/// Byte stride of the reader's parse chunks: chunk k of a window's data
/// lines starts at the first line start at or after k * kCsvChunkBytes
/// from the window's start. Chunks are parsed in parallel; the result never
/// depends on the split (tests use the stride to put damage on both sides
/// of a boundary).
inline constexpr size_t kCsvChunkBytes = size_t{1} << 18;
static_assert(kCsvWindowBytes % kCsvChunkBytes == 0,
              "a window holds whole parse chunks");

/// Parses `path` into a Dataset. "", "?", "na", "nan" and "null" (any case,
/// padded or not) are missing cells. Fails (no partial result) on ragged
/// rows, non-numeric fields (other than missing tokens), labels outside
/// int32, embedded NUL bytes, fields/rows beyond the size caps, or
/// unreadable files and directories; every parse error carries 1-based
/// line (and where it applies, column) context, and of several errors the
/// first in line order is reported. The file is read front to back in
/// windows of kCsvWindowBytes; a pipe or FIFO is read to its end the same
/// way.
Result<Dataset> ReadCsv(const std::string& path,
                        const CsvReadOptions& options = {});

/// Parses CSV text directly (same semantics as ReadCsv, and the same
/// windows: the text is parsed where it lies, one window at a time).
Result<Dataset> ReadCsvString(std::string_view text,
                              const CsvReadOptions& options = {});

/// Writes `data` to `path` as WriteCsvString formats it.
Status WriteCsv(const Dataset& data, const std::string& path);

/// Serializes `data` to comma-separated text: a header row of the column
/// names, then one line per row with each value as printf's "%.17g" and a
/// missing cell as "?". A dataset with labels gets a last column named
/// "label".
std::string WriteCsvString(const Dataset& data);

}  // namespace hido

#endif  // HIDO_DATA_CSV_H_
