#ifndef HIDO_TESTS_TESTING_CSV_ORACLE_H_
#define HIDO_TESTS_TESTING_CSV_ORACLE_H_

// The CSV-reading oracle for tests: a line-at-a-time, single-threaded
// reader that stages every line, field and row as its own string or
// vector. It shares no code with the windowed, chunked parser behind
// ReadCsv and ReadCsvEncoded beyond the string helpers, so the two agreeing
// on a Status (code and message), a Dataset, or codes and dictionaries
// checks the parallel reader, its window and chunk stitching, its
// dictionaries and its first-error order end to end.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/run_control.h"
#include "common/status.h"
#include "common/string_util.h"
#include "data/csv.h"
#include "data/dataset.h"
#include "data/encoding.h"

namespace hido {
namespace oracle {

/// Splits `text` into lines, tolerating both \n and \r\n endings.
inline std::vector<std::string> SplitCsvLines(const std::string& text) {
  std::vector<std::string> lines = Split(text, '\n');
  for (std::string& line : lines) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
  }
  // A trailing newline produces one empty final element; drop it.
  if (!lines.empty() && lines.back().empty()) lines.pop_back();
  return lines;
}

/// Structural checks of one split line: column cap, then per field an
/// embedded NUL byte or a field over the byte cap.
inline Status CheckCsvFields(const std::vector<std::string>& fields,
                             size_t line_no, const CsvReadOptions& options) {
  if (options.max_columns != 0 && fields.size() > options.max_columns) {
    return Status::ParseError(
        StrFormat("csv: line %zu has %zu fields, over the %zu-column limit",
                  line_no, fields.size(), options.max_columns));
  }
  for (size_t c = 0; c < fields.size(); ++c) {
    if (fields[c].find('\0') != std::string::npos) {
      return Status::ParseError(StrFormat(
          "csv: line %zu column %zu: embedded NUL byte (binary input?)",
          line_no, c + 1));
    }
    if (options.max_field_bytes != 0 &&
        fields[c].size() > options.max_field_bytes) {
      return Status::ParseError(StrFormat(
          "csv: line %zu column %zu: %zu-byte field is over the %zu-byte "
          "limit (wrong delimiter?)",
          line_no, c + 1, fields[c].size(), options.max_field_bytes));
    }
  }
  return Status::Ok();
}

/// One read's rows as the oracle sees them, before any encoding.
struct CsvRows {
  std::vector<std::string> header;  ///< trimmed; empty without a header
  size_t width = 0;                 ///< fields per line, label included
  std::vector<std::vector<double>> values;  ///< per row, label excluded
  /// Encoding only: per row, the raw non-label fields.
  std::vector<std::vector<std::string>> fields;
  /// Encoding only: per non-label column, did a field fail as a number.
  std::vector<char> non_numeric;
  std::vector<int32_t> labels;  ///< per row, with a label column
};

/// The reader's checks and values, one line at a time on the calling
/// thread. With `encode`, a field that is neither a number nor a missing
/// token marks its column instead of failing the read.
inline Status ReadCsvRows(const std::string& text,
                          const CsvReadOptions& options, bool encode,
                          CsvRows* out) {
  constexpr size_t kPollStride = 1024;
  const std::vector<std::string> lines = SplitCsvLines(text);
  size_t line_idx = 0;

  if (options.stop != nullptr && options.stop->ShouldStop()) {
    return StopStatus(*options.stop, "csv read");
  }

  std::vector<std::string>& header = out->header;
  if (options.has_header) {
    while (line_idx < lines.size() && options.skip_blank_lines &&
           Trim(lines[line_idx]).empty()) {
      ++line_idx;
    }
    if (line_idx >= lines.size()) {
      return Status::ParseError("csv: missing header line");
    }
    header = Split(lines[line_idx], options.delimiter);
    const Status header_ok = CheckCsvFields(header, line_idx + 1, options);
    if (!header_ok.ok()) return header_ok;
    for (std::string& name : header) name = std::string(Trim(name));
    ++line_idx;
  }

  size_t& width = out->width;
  width = header.size();  // 0 when no header: inferred from row 1
  const int label_col = options.label_column;

  for (; line_idx < lines.size(); ++line_idx) {
    if (options.stop != nullptr &&
        line_idx % kPollStride == kPollStride - 1 &&
        options.stop->ShouldStop()) {
      return StopStatus(*options.stop, "csv read");
    }
    const std::string& line = lines[line_idx];
    if (Trim(line).empty()) {
      if (options.skip_blank_lines) continue;
      return Status::ParseError(
          StrFormat("csv: blank line %zu", line_idx + 1));
    }
    const std::vector<std::string> fields = Split(line, options.delimiter);
    const Status fields_ok = CheckCsvFields(fields, line_idx + 1, options);
    if (!fields_ok.ok()) return fields_ok;
    if (width == 0) {
      width = fields.size();
      if (label_col >= 0 && static_cast<size_t>(label_col) >= width) {
        return Status::InvalidArgument(
            StrFormat("csv: label_column %d out of range (width %zu)",
                      label_col, width));
      }
    }
    if (fields.size() != width) {
      return Status::ParseError(
          StrFormat("csv: line %zu has %zu fields, expected %zu",
                    line_idx + 1, fields.size(), width));
    }
    std::vector<double> row;
    std::vector<std::string> raw;
    for (size_t c = 0; c < fields.size(); ++c) {
      if (label_col >= 0 && c == static_cast<size_t>(label_col)) {
        const Result<int64_t> label = ParseInt(fields[c]);
        if (!label.ok()) {
          return Status::ParseError(
              StrFormat("csv: line %zu: bad label '%s'", line_idx + 1,
                        fields[c].c_str()));
        }
        if (label.value() < std::numeric_limits<int32_t>::min() ||
            label.value() > std::numeric_limits<int32_t>::max()) {
          return Status::ParseError(
              StrFormat("csv: line %zu: label '%s' out of range",
                        line_idx + 1, fields[c].c_str()));
        }
        out->labels.push_back(static_cast<int32_t>(label.value()));
        continue;
      }
      if (encode) raw.push_back(fields[c]);
      if (IsMissingToken(fields[c])) {
        row.push_back(std::numeric_limits<double>::quiet_NaN());
        continue;
      }
      const Result<double> value = ParseDouble(fields[c]);
      if (!value.ok() && encode) {
        out->non_numeric.resize(width, 0);
        out->non_numeric[row.size()] = 1;
        row.push_back(std::numeric_limits<double>::quiet_NaN());
        continue;
      }
      if (!value.ok()) {
        return Status::ParseError(
            StrFormat("csv: line %zu column %zu: %s", line_idx + 1, c + 1,
                      value.status().message().c_str()));
      }
      row.push_back(value.value());
    }
    out->values.push_back(std::move(row));
    if (encode) out->fields.push_back(std::move(raw));
  }

  if (label_col >= 0 && width > 0 &&
      static_cast<size_t>(label_col) >= width) {
    return Status::InvalidArgument("csv: label_column out of range");
  }
  return Status::Ok();
}

/// ReadCsvString, one line at a time on the calling thread.
inline Result<Dataset> ReadCsvString(const std::string& text,
                                     const CsvReadOptions& options = {}) {
  CsvRows rows;
  const Status read = ReadCsvRows(text, options, /*encode=*/false, &rows);
  if (!read.ok()) return read;
  const int label_col = options.label_column;
  std::vector<std::string> names;
  for (size_t c = 0; c < rows.header.size(); ++c) {
    if (label_col >= 0 && c == static_cast<size_t>(label_col)) continue;
    names.push_back(rows.header[c]);
  }
  Dataset ds = Dataset::FromRows(rows.values, std::move(names));
  if (label_col >= 0) ds.SetLabels(std::move(rows.labels));
  return ds;
}

/// ReadCsvEncodedString, the plain way: the numeric oracle's rows, then
/// each column with a non-numeric field holds, per row, the index of its
/// trimmed field among the column's sorted distinct trimmed fields (a
/// missing token stays missing).
inline Result<EncodedDataset> ReadCsvEncodedString(
    const std::string& text, const CsvReadOptions& options = {}) {
  CsvRows rows;
  const Status read = ReadCsvRows(text, options, /*encode=*/true, &rows);
  if (!read.ok()) return read;
  const int label_col = options.label_column;
  EncodedDataset out;
  for (size_t column = 0; column < rows.non_numeric.size(); ++column) {
    if (rows.non_numeric[column] == 0) continue;
    std::set<std::string> distinct;
    for (const std::vector<std::string>& fields : rows.fields) {
      if (IsMissingToken(fields[column])) continue;
      distinct.insert(std::string(Trim(fields[column])));
    }
    const std::vector<std::string> values(distinct.begin(), distinct.end());
    for (size_t r = 0; r < rows.values.size(); ++r) {
      const std::string& field = rows.fields[r][column];
      if (IsMissingToken(field)) continue;
      rows.values[r][column] = static_cast<double>(
          std::lower_bound(values.begin(), values.end(), Trim(field)) -
          values.begin());
    }
    out.categorical.push_back({column, values});
  }
  std::vector<std::string> names;
  for (size_t c = 0; c < rows.width; ++c) {
    if (label_col >= 0 && c == static_cast<size_t>(label_col)) continue;
    names.push_back(c < rows.header.size() ? rows.header[c]
                                           : StrFormat("c%zu", c));
  }
  out.data = Dataset::FromRows(rows.values, std::move(names));
  if (label_col >= 0) out.data.SetLabels(std::move(rows.labels));
  return out;
}

}  // namespace oracle
}  // namespace hido

#endif  // HIDO_TESTS_TESTING_CSV_ORACLE_H_
