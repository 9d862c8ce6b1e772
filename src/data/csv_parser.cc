#include "data/csv_parser.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/macros.h"
#include "common/parallel.h"
#include "common/run_control.h"
#include "common/string_util.h"

namespace hido {
namespace internal {

namespace {

// Line stride between StopToken polls, counted over the file's lines (a
// poll is an atomic read or two; a line is a few hundred nanoseconds).
constexpr size_t kPollStride = 1024;

const double kNaN = std::numeric_limits<double>::quiet_NaN();

// Iterates the lines of text[begin, end): each without its '\n' and
// without one trailing '\r'.
class LineReader {
 public:
  LineReader(std::string_view text, size_t begin, size_t end)
      : text_(text), pos_(begin), end_(end) {}

  bool Next(std::string_view* line) {
    if (pos_ >= end_) return false;
    const char* start = text_.data() + pos_;
    const auto* newline =
        static_cast<const char*>(std::memchr(start, '\n', end_ - pos_));
    const size_t stop =
        newline == nullptr ? end_ : static_cast<size_t>(newline - text_.data());
    *line = text_.substr(pos_, stop - pos_);
    if (!line->empty() && line->back() == '\r') line->remove_suffix(1);
    pos_ = newline == nullptr ? end_ : stop + 1;
    return true;
  }

  size_t pos() const { return pos_; }

 private:
  std::string_view text_;
  size_t pos_;
  size_t end_;
};

bool IsBlank(std::string_view line) { return Trim(line).empty(); }

// End of the text's last line. What follows the last '\n' is a line only
// when it holds more than a lone '\r'.
size_t LinesEnd(std::string_view text) {
  const size_t last_newline = text.rfind('\n');
  const size_t tail =
      last_newline == std::string_view::npos ? 0 : last_newline + 1;
  const std::string_view rest = text.substr(tail);
  return rest.empty() || rest == "\r" ? tail : text.size();
}

void SplitFields(std::string_view line, char delimiter,
                 std::vector<std::string_view>* fields) {
  fields->clear();
  size_t start = 0;
  while (true) {
    const auto* hit = static_cast<const char*>(
        std::memchr(line.data() + start, delimiter, line.size() - start));
    if (hit == nullptr) {
      fields->push_back(line.substr(start));
      return;
    }
    const auto pos = static_cast<size_t>(hit - line.data());
    fields->push_back(line.substr(start, pos - start));
    start = pos + 1;
  }
}

// Structural sanity of one split line (header or data): the column cap,
// then per field in order an embedded NUL byte or a field over the byte
// cap. These are the signatures of binary garbage or a wrong delimiter;
// catching them here points the message at the exact line and column.
Status CheckFields(std::string_view line,
                   const std::vector<std::string_view>& fields,
                   size_t line_no, const CsvReadOptions& options) {
  if (options.max_columns != 0 && fields.size() > options.max_columns) {
    return Status::ParseError(
        StrFormat("csv: line %zu has %zu fields, over the %zu-column limit",
                  line_no, fields.size(), options.max_columns));
  }
  if (std::memchr(line.data(), '\0', line.size()) == nullptr &&
      (options.max_field_bytes == 0 ||
       line.size() <= options.max_field_bytes)) {
    return Status::Ok();
  }
  for (size_t c = 0; c < fields.size(); ++c) {
    if (fields[c].find('\0') != std::string_view::npos) {
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

// The value of `field` when ParseDouble would accept it: trimmed, one
// optional leading '+', the whole rest read by from_chars, finite.
// Returns false otherwise; ParseDouble then words the error.
bool ParseFinite(std::string_view field, double* value) {
  std::string_view body = Trim(field);
  if (!body.empty() && body.front() == '+') {
    body.remove_prefix(1);
    if (body.empty() || body.front() == '+' || body.front() == '-') {
      return false;
    }
  }
  const char* end = body.data() + body.size();
  const auto [ptr, ec] = std::from_chars(body.data(), end, *value);
  return ec == std::errc() && ptr == end && std::isfinite(*value);
}

Result<int32_t> ParseLabel(std::string_view field, size_t line_no) {
  const Result<int64_t> label = ParseInt(field);
  if (!label.ok()) {
    return Status::ParseError(StrFormat("csv: line %zu: bad label '%s'",
                                        line_no,
                                        std::string(field).c_str()));
  }
  if (label.value() < std::numeric_limits<int32_t>::min() ||
      label.value() > std::numeric_limits<int32_t>::max()) {
    return Status::ParseError(
        StrFormat("csv: line %zu: label '%s' out of range", line_no,
                  std::string(field).c_str()));
  }
  return static_cast<int32_t>(label.value());
}

// Lines [begin, end) of the data, whole lines only.
struct Chunk {
  size_t begin = 0;
  size_t end = 0;
  size_t lines = 0;       // lines in the chunk
  size_t rows = 0;        // non-blank lines in the chunk
  size_t first_line = 0;  // lines of the file before the chunk
  size_t first_row = 0;   // data rows before the chunk
  Status error;           // the chunk's first error
  // Encoding only: per field index, did a field fail to parse as a number.
  std::vector<char> non_numeric;
};

// Chunk k of the data starts at the first line start at or after
// k * kCsvChunkBytes, so the split depends on the bytes alone.
std::vector<Chunk> SplitChunks(std::string_view text, size_t begin,
                               size_t end) {
  std::vector<Chunk> chunks;
  while (begin < end) {
    const size_t target = (begin / kCsvChunkBytes + 1) * kCsvChunkBytes;
    size_t stop = end;
    if (target < end) {
      const auto* newline = static_cast<const char*>(
          std::memchr(text.data() + target - 1, '\n', end - (target - 1)));
      if (newline != nullptr) {
        stop = static_cast<size_t>(newline - text.data()) + 1;
      }
    }
    Chunk chunk;
    chunk.begin = begin;
    chunk.end = stop;
    chunks.push_back(std::move(chunk));
    begin = stop;
  }
  return chunks;
}

class Parser {
 public:
  Parser(std::string_view text, const CsvReadOptions& options, bool encode)
      : text_(text), options_(options), encode_(encode) {}

  Result<CsvTable> Run();

 private:
  void ParseChunk(Chunk& chunk);
  Status ParseRow(std::string_view line, size_t line_no, size_t row,
                  std::vector<std::string_view>& fields, Chunk& chunk);
  void EncodeCategorical(const std::vector<Chunk>& chunks,
                         const std::vector<size_t>& fields);

  std::string_view text_;
  const CsvReadOptions& options_;
  const bool encode_;
  CsvTable table_;
  int label_ = -1;             // label field index, -1 for none
  size_t bad_label_line_ = 0;  // line whose row reports label_column
  size_t max_rows_ = 0;        // rows the columns hold
};

Result<CsvTable> Parser::Run() {
  const StopToken* stop = options_.stop;
  if (stop != nullptr && stop->ShouldStop()) {
    return StopStatus(*stop, "csv read");
  }
  const size_t end = LinesEnd(text_);
  LineReader reader(text_, 0, end);
  size_t header_lines = 0;
  std::string_view line;
  std::vector<std::string_view> fields;
  if (options_.has_header) {
    bool found = false;
    while (reader.Next(&line)) {
      ++header_lines;
      if (options_.skip_blank_lines && IsBlank(line)) continue;
      found = true;
      break;
    }
    if (!found) return Status::ParseError("csv: missing header line");
    SplitFields(line, options_.delimiter, &fields);
    HIDO_RETURN_IF_ERROR(CheckFields(line, fields, header_lines, options_));
    for (const std::string_view name : fields) {
      table_.header.emplace_back(Trim(name));
    }
    table_.width = table_.header.size();
  }
  const size_t data_begin = reader.pos();

  const int label_column = options_.label_column;
  if (!options_.has_header) {
    // The first data row fixes the width, and there a label column past
    // it fails the read (after the row's structural checks).
    LineReader probe(text_, data_begin, end);
    size_t line_no = 0;
    while (probe.Next(&line)) {
      ++line_no;
      if (IsBlank(line)) {
        if (options_.skip_blank_lines) continue;
        break;
      }
      table_.width = 1 + static_cast<size_t>(std::count(
                             line.begin(), line.end(), options_.delimiter));
      if (label_column >= 0 &&
          static_cast<size_t>(label_column) >= table_.width) {
        bad_label_line_ = line_no;
      }
      break;
    }
  }
  const size_t width = table_.width;
  if (label_column >= 0 && static_cast<size_t>(label_column) < width) {
    label_ = label_column;
  }

  std::vector<Chunk> chunks = SplitChunks(text_, data_begin, end);
  const size_t threads = HardwareThreads();
  ParallelFor(chunks.size(), threads, [&](size_t k, size_t) {
    Chunk& chunk = chunks[k];
    LineReader lines(text_, chunk.begin, chunk.end);
    std::string_view chunk_line;
    while (lines.Next(&chunk_line)) {
      ++chunk.lines;
      if (!IsBlank(chunk_line)) ++chunk.rows;
    }
  });
  size_t lines_before = header_lines;
  size_t rows_before = 0;
  for (Chunk& chunk : chunks) {
    chunk.first_line = lines_before;
    chunk.first_row = rows_before;
    lines_before += chunk.lines;
    rows_before += chunk.rows;
  }
  // A row of `width` fields holds width - 1 delimiters and, unless it is
  // the last, a '\n', so a file of whole rows has at most
  // bytes / width + 1 of them. Beyond that some row is short, and the
  // first short row is among the first bytes / width + 1: the columns
  // never need more, whatever the input claims.
  max_rows_ = width == 0 ? 0
                         : std::min(rows_before,
                                    (end - data_begin) / width + 1);
  table_.columns.resize(width - (label_ >= 0 ? 1 : 0));
  ParallelFor(table_.columns.size(), threads, [&](size_t j, size_t) {
    table_.columns[j].resize(max_rows_);
  });
  if (label_ >= 0) table_.labels.resize(max_rows_);

  ParallelFor(chunks.size(), threads,
              [&](size_t k, size_t) { ParseChunk(chunks[k]); });
  for (const Chunk& chunk : chunks) {
    if (!chunk.error.ok()) return chunk.error;
  }
  if (label_column >= 0 && label_ < 0 && width > 0) {
    return Status::InvalidArgument("csv: label_column out of range");
  }
  HIDO_CHECK(max_rows_ == rows_before);
  table_.num_rows = rows_before;

  if (encode_) {
    std::vector<size_t> categorical_fields;
    for (size_t c = 0; c < width; ++c) {
      for (const Chunk& chunk : chunks) {
        if (!chunk.non_numeric.empty() && chunk.non_numeric[c] != 0) {
          categorical_fields.push_back(c);
          break;
        }
      }
    }
    if (!categorical_fields.empty()) {
      EncodeCategorical(chunks, categorical_fields);
    }
  }
  return std::move(table_);
}

void Parser::ParseChunk(Chunk& chunk) {
  const StopToken* stop = options_.stop;
  LineReader lines(text_, chunk.begin, chunk.end);
  std::vector<std::string_view> fields;
  size_t line_no = chunk.first_line;
  size_t row = chunk.first_row;
  std::string_view line;
  while (lines.Next(&line)) {
    ++line_no;
    if (stop != nullptr && (line_no - 1) % kPollStride == kPollStride - 1 &&
        stop->ShouldStop()) {
      chunk.error = StopStatus(*stop, "csv read");
      return;
    }
    if (IsBlank(line)) {
      if (options_.skip_blank_lines) continue;
      chunk.error =
          Status::ParseError(StrFormat("csv: blank line %zu", line_no));
      return;
    }
    // Past max_rows_ an earlier row is short, and its error wins.
    if (row >= max_rows_) return;
    chunk.error = ParseRow(line, line_no, row, fields, chunk);
    if (!chunk.error.ok()) return;
    ++row;
  }
}

Status Parser::ParseRow(std::string_view line, size_t line_no, size_t row,
                        std::vector<std::string_view>& fields,
                        Chunk& chunk) {
  SplitFields(line, options_.delimiter, &fields);
  HIDO_RETURN_IF_ERROR(CheckFields(line, fields, line_no, options_));
  const size_t width = table_.width;
  if (line_no == bad_label_line_) {
    return Status::InvalidArgument(
        StrFormat("csv: label_column %d out of range (width %zu)",
                  options_.label_column, width));
  }
  if (fields.size() != width) {
    return Status::ParseError(
        StrFormat("csv: line %zu has %zu fields, expected %zu", line_no,
                  fields.size(), width));
  }
  size_t column = 0;
  for (size_t c = 0; c < width; ++c) {
    const std::string_view field = fields[c];
    if (static_cast<int>(c) == label_) {
      const Result<int32_t> label = ParseLabel(field, line_no);
      if (!label.ok()) return label.status();
      table_.labels[row] = label.value();
      continue;
    }
    double& cell = table_.columns[column++][row];
    if (ParseFinite(field, &cell)) continue;
    if (options_.allow_missing && IsMissingToken(field)) {
      cell = kNaN;
      continue;
    }
    if (encode_) {
      if (chunk.non_numeric.empty()) chunk.non_numeric.assign(width, 0);
      chunk.non_numeric[c] = 1;
      cell = kNaN;
      continue;
    }
    const Result<double> value = ParseDouble(field);
    HIDO_DCHECK(!value.ok());
    return Status::ParseError(StrFormat("csv: line %zu column %zu: %s",
                                        line_no, c + 1,
                                        value.status().message().c_str()));
  }
  return Status::Ok();
}

// Only the categorical columns are read a second time: their trimmed
// fields form the sorted dictionary, and each cell becomes its index.
void Parser::EncodeCategorical(const std::vector<Chunk>& chunks,
                               const std::vector<size_t>& fields) {
  const size_t rows = table_.num_rows;
  std::vector<size_t> columns;
  for (const size_t c : fields) {
    columns.push_back(label_ >= 0 && c > static_cast<size_t>(label_) ? c - 1
                                                                      : c);
  }
  std::vector<std::vector<std::string_view>> values(
      fields.size(), std::vector<std::string_view>(rows));
  const size_t threads = HardwareThreads();
  ParallelFor(chunks.size(), threads, [&](size_t k, size_t) {
    LineReader lines(text_, chunks[k].begin, chunks[k].end);
    std::vector<std::string_view> split;
    size_t row = chunks[k].first_row;
    std::string_view line;
    while (lines.Next(&line)) {
      if (IsBlank(line)) continue;
      SplitFields(line, options_.delimiter, &split);
      for (size_t i = 0; i < fields.size(); ++i) {
        const std::string_view field = Trim(split[fields[i]]);
        const bool missing = options_.allow_missing && IsMissingToken(field);
        table_.columns[columns[i]][row] = missing ? kNaN : 0.0;
        if (!missing) values[i][row] = field;
      }
      ++row;
    }
  });
  table_.categorical = columns;
  table_.dictionaries.resize(fields.size());
  ParallelFor(fields.size(), threads, [&](size_t i, size_t) {
    std::vector<double>& column = table_.columns[columns[i]];
    std::vector<std::string_view> distinct;
    for (size_t r = 0; r < rows; ++r) {
      if (!std::isnan(column[r])) distinct.push_back(values[i][r]);
    }
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    for (size_t r = 0; r < rows; ++r) {
      if (std::isnan(column[r])) continue;
      column[r] = static_cast<double>(
          std::lower_bound(distinct.begin(), distinct.end(), values[i][r]) -
          distinct.begin());
    }
    table_.dictionaries[i].assign(distinct.begin(), distinct.end());
  });
}

}  // namespace

Result<CsvTable> ParseCsv(std::string_view text,
                          const CsvReadOptions& options,
                          bool encode_categorical) {
  return Parser(text, options, encode_categorical).Run();
}

}  // namespace internal
}  // namespace hido
