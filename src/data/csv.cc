#include "data/csv.h"

#include <charconv>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "data/csv_parser.h"
#include "obs/metrics.h"

namespace hido {

namespace internal {

Result<Dataset> ReadCsvWindowed(const CsvSource& source,
                                const CsvReadOptions& options,
                                size_t window_bytes) {
  Result<CsvTable> parsed =
      ParseCsv(source, options, /*encode_categorical=*/false, window_bytes);
  if (!parsed.ok()) return parsed.status();
  CsvTable& table = parsed.value();

  // Column names are the header's, minus the label column's.
  std::vector<std::string> names;
  for (size_t c = 0; c < table.header.size(); ++c) {
    if (static_cast<int>(c) == options.label_column) continue;
    names.push_back(std::move(table.header[c]));
  }
  Dataset ds = Dataset::FromColumns(table.num_rows, std::move(table.columns),
                                    std::move(names));
  if (options.label_column >= 0) {
    ds.SetLabels(std::move(table.labels));
  }
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("data.csv_loads").Add(1);
  registry.GetCounter("data.csv_rows").Add(ds.num_rows());
  return ds;
}

}  // namespace internal

Result<Dataset> ReadCsvString(std::string_view text,
                              const CsvReadOptions& options) {
  return internal::ReadCsvWindowed({nullptr, text}, options, kCsvWindowBytes);
}

Result<Dataset> ReadCsv(const std::string& path,
                        const CsvReadOptions& options) {
  return internal::ReadCsvWindowed({&path, {}}, options, kCsvWindowBytes);
}

std::string WriteCsvString(const Dataset& data,
                           const CsvWriteOptions& options) {
  std::string out;
  const bool labels = options.write_labels && data.has_labels();
  if (options.write_header) {
    for (size_t c = 0; c < data.num_cols(); ++c) {
      if (c > 0) out.push_back(options.delimiter);
      out += data.ColumnName(c);
    }
    if (labels) {
      if (data.num_cols() > 0) out.push_back(options.delimiter);
      out += "label";
    }
    out.push_back('\n');
  }
  // to_chars(general, 17) writes the bytes of printf's "%.17g".
  char number[32];
  const auto append = [&](const std::to_chars_result written) {
    out.append(number, written.ptr);
  };
  for (size_t r = 0; r < data.num_rows(); ++r) {
    for (size_t c = 0; c < data.num_cols(); ++c) {
      if (c > 0) out.push_back(options.delimiter);
      if (data.IsMissing(r, c)) {
        out += options.missing_token;
      } else {
        append(std::to_chars(number, number + sizeof(number), data.Get(r, c),
                             std::chars_format::general, 17));
      }
    }
    if (labels) {
      if (data.num_cols() > 0) out.push_back(options.delimiter);
      append(std::to_chars(number, number + sizeof(number), data.Label(r)));
    }
    out.push_back('\n');
  }
  return out;
}

Status WriteCsv(const Dataset& data, const std::string& path,
                const CsvWriteOptions& options) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Status::IoError("cannot open for writing: " + path);
  }
  out << WriteCsvString(data, options);
  out.flush();
  if (!out) {
    return Status::IoError("write failure: " + path);
  }
  return Status::Ok();
}

}  // namespace hido
