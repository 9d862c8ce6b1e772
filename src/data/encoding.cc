#include "data/encoding.h"

#include <utility>

#include "common/file_util.h"
#include "common/string_util.h"
#include "data/csv_parser.h"
#include "obs/metrics.h"

namespace hido {

std::string EncodedDataset::Decode(size_t column, double code) const {
  for (const CategoricalMapping& mapping : categorical) {
    if (mapping.column != column) continue;
    const auto idx = static_cast<size_t>(code);
    if (code < 0.0 || idx >= mapping.values.size()) return "";
    return mapping.values[idx];
  }
  return "";
}

Result<EncodedDataset> ReadCsvEncodedString(std::string_view text,
                                            const CsvReadOptions& options) {
  Result<internal::CsvTable> parsed =
      internal::ParseCsv(text, options, /*encode_categorical=*/true);
  if (!parsed.ok()) return parsed.status();
  internal::CsvTable& table = parsed.value();

  // Columns are named after the header, or "c<field index>" without one.
  std::vector<std::string> names;
  for (size_t c = 0; c < table.width; ++c) {
    if (static_cast<int>(c) == options.label_column) continue;
    names.push_back(c < table.header.size() ? std::move(table.header[c])
                                            : StrFormat("c%zu", c));
  }
  EncodedDataset out;
  out.data = Dataset::FromColumns(table.num_rows, std::move(table.columns),
                                  std::move(names));
  if (options.label_column >= 0) out.data.SetLabels(std::move(table.labels));
  for (size_t i = 0; i < table.categorical.size(); ++i) {
    out.categorical.push_back(
        {table.categorical[i], std::move(table.dictionaries[i])});
  }
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("data.csv_loads").Add(1);
  registry.GetCounter("data.csv_rows").Add(out.data.num_rows());
  registry.GetCounter("data.columns_encoded").Add(out.categorical.size());
  return out;
}

Result<EncodedDataset> ReadCsvEncoded(const std::string& path,
                                      const CsvReadOptions& options) {
  const Result<FileBytes> bytes = ReadFile(path);
  if (!bytes.ok()) return bytes.status();
  return ReadCsvEncodedString(bytes.value().view(), options);
}

}  // namespace hido
