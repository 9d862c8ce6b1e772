#include "data/csv_parser.h"

#include <sys/mman.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <map>

#include "common/file_util.h"
#include "common/macros.h"
#include "common/parallel.h"
#include "common/run_control.h"
#include "common/string_util.h"

namespace hido {
namespace internal {

namespace {

// Line stride between StopToken polls, counted over the input's lines (a
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

// Splits one line (header or data) into `fields` and checks its structural
// sanity: the column cap, then per field in order an embedded NUL byte or a
// field over the byte cap. These are the signatures of binary garbage or a
// wrong delimiter; catching them here points the message at the exact line
// and column. The column cap is checked on the delimiter count before the
// split, so that a line of millions of fields (a binary file, an input
// without '\n') is rejected without a view per field; only a line of at
// least max_columns bytes can be over it.
Status SplitChecked(std::string_view line, size_t line_no,
                    const CsvReadOptions& options,
                    std::vector<std::string_view>* fields) {
  if (options.max_columns != 0 && line.size() >= options.max_columns) {
    const size_t count =
        1 + static_cast<size_t>(
                std::count(line.begin(), line.end(), options.delimiter));
    if (count > options.max_columns) {
      return Status::ParseError(
          StrFormat("csv: line %zu has %zu fields, over the %zu-column limit",
                    line_no, count, options.max_columns));
    }
  }
  SplitFields(line, options.delimiter, fields);
  if (std::memchr(line.data(), '\0', line.size()) == nullptr &&
      (options.max_field_bytes == 0 ||
       line.size() <= options.max_field_bytes)) {
    return Status::Ok();
  }
  for (size_t c = 0; c < fields->size(); ++c) {
    const std::string_view field = (*fields)[c];
    if (field.find('\0') != std::string_view::npos) {
      return Status::ParseError(StrFormat(
          "csv: line %zu column %zu: embedded NUL byte (binary input?)",
          line_no, c + 1));
    }
    if (options.max_field_bytes != 0 &&
        field.size() > options.max_field_bytes) {
      return Status::ParseError(StrFormat(
          "csv: line %zu column %zu: %zu-byte field is over the %zu-byte "
          "limit (wrong delimiter?)",
          line_no, c + 1, field.size(), options.max_field_bytes));
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

// The input, one window at a time: views of in-memory text, or a file read
// front to back into two reused buffers. Every window starts at a line
// start and holds up to `window_bytes`, or twice its carried partial line
// when that is longer than half a window, so a line longer than a window
// still ends up whole in one.
class Windows {
 public:
  Windows(std::string_view text, size_t window_bytes)
      : text_(text), window_bytes_(window_bytes) {}
  Windows(SequentialFile* file, size_t window_bytes)
      : file_(file), window_bytes_(window_bytes) {}

  // Makes the input's first window current.
  Status Start() {
    current_ = {};
    begin_ = 0;
    HIDO_RETURN_IF_ERROR(Prefetch(0));
    Advance();
    return Status::Ok();
  }

  // Starts over from the first byte.
  Status Rewind() {
    if (file_ != nullptr) HIDO_RETURN_IF_ERROR(file_->Rewind());
    return Start();
  }

  // Bytes of the whole input; 0 for a pipe or FIFO, whose size is unknown.
  size_t size() const {
    return file_ == nullptr ? text_.size() : file_->size();
  }

  std::string_view current() const { return current_; }
  bool last() const { return last_; }  // no byte follows the current window

  // Loads the window after the current one: the current window's bytes
  // from `keep` on, then fresh bytes. It writes only the spare buffer, so
  // it may run while the current window is parsed.
  Status Prefetch(size_t keep) {
    const std::string_view carry = current_.substr(keep);
    const size_t capacity = std::max(window_bytes_, 2 * carry.size());
    if (file_ == nullptr) {
      next_begin_ = begin_ + keep;
      next_ = text_.substr(next_begin_, capacity);
      next_last_ = next_begin_ + next_.size() == text_.size();
      return Status::Ok();
    }
    Buffer& spare = buffers_[1 - slot_];
    HIDO_RETURN_IF_ERROR(spare.Reserve(capacity));
    if (!carry.empty()) std::memcpy(spare.data, carry.data(), carry.size());
    const Result<size_t> fresh =
        file_->Read(spare.data + carry.size(), capacity - carry.size());
    if (!fresh.ok()) return fresh.status();
    next_ = {spare.data, carry.size() + fresh.value()};
    next_last_ = next_.size() < capacity;
    return Status::Ok();
  }

  // Makes the prefetched window current.
  void Advance() {
    current_ = next_;
    last_ = next_last_;
    begin_ = next_begin_;
    slot_ = 1 - slot_;
  }

 private:
  // A window buffer, mapped straight from the kernel rather than through
  // malloc: freeing it returns its pages, and it leaves no window-sized
  // hole in a malloc arena, nor raises malloc's mmap threshold to window
  // size (either left later allocations in arenas that kept ~20 MB more
  // resident over repeated reads). Never zero-filled: reads overwrite it.
  struct Buffer {
    Buffer() = default;
    Buffer(const Buffer&) = delete;
    Buffer& operator=(const Buffer&) = delete;
    ~Buffer() {
      if (data != nullptr) ::munmap(data, capacity);
    }

    Status Reserve(size_t bytes) {
      if (capacity >= bytes) return Status::Ok();
      if (data != nullptr) ::munmap(data, capacity);
      void* mapped = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                            MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      data = mapped == MAP_FAILED ? nullptr : static_cast<char*>(mapped);
      capacity = data == nullptr ? 0 : bytes;
      if (data != nullptr) return Status::Ok();
      return Status::ResourceExhausted(
          StrFormat("csv: cannot map a %zu-byte read window", bytes));
    }

    char* data = nullptr;
    size_t capacity = 0;
  };

  std::string_view text_;
  SequentialFile* file_ = nullptr;
  const size_t window_bytes_;
  std::string_view current_;
  bool last_ = false;
  size_t begin_ = 0;  // offset of current_ in text_
  std::string_view next_;
  bool next_last_ = false;
  size_t next_begin_ = 0;
  Buffer buffers_[2];
  size_t slot_ = 0;  // the buffer holding current_
};

// End of the window's whole lines: all of the last window's lines (see
// LinesEnd), else everything up to its last '\n'.
size_t WholeLinesEnd(std::string_view window, bool last) {
  if (last) return LinesEnd(window);
  const size_t newline = window.rfind('\n');
  return newline == std::string_view::npos ? 0 : newline + 1;
}

// Lines [begin, end) of a window, whole lines only.
struct Chunk {
  size_t begin = 0;
  size_t end = 0;
  size_t lines = 0;       // lines in the chunk
  size_t rows = 0;        // non-blank lines in the chunk
  size_t first_line = 0;  // lines of the input before the chunk
  size_t first_row = 0;   // data rows before the chunk
  Status error;           // the chunk's first error
  // Encoding only: per field index, did a field fail to parse as a number.
  std::vector<char> non_numeric;
};

// Chunk k of window[begin, end) starts at the first line start at or after
// k * kCsvChunkBytes, so the split depends on the bytes alone. Each chunk's
// lines and rows are counted (in parallel) and numbered on from
// `first_line` and `first_row`.
std::vector<Chunk> CountedChunks(std::string_view window, size_t begin,
                                 size_t end, size_t first_line,
                                 size_t first_row) {
  std::vector<Chunk> chunks;
  while (begin < end) {
    const size_t target = (begin / kCsvChunkBytes + 1) * kCsvChunkBytes;
    size_t stop = end;
    if (target < end) {
      const auto* newline = static_cast<const char*>(
          std::memchr(window.data() + target - 1, '\n', end - (target - 1)));
      if (newline != nullptr) {
        stop = static_cast<size_t>(newline - window.data()) + 1;
      }
    }
    Chunk chunk;
    chunk.begin = begin;
    chunk.end = stop;
    chunks.push_back(std::move(chunk));
    begin = stop;
  }
  ParallelFor(chunks.size(), HardwareThreads(), [&](size_t k, size_t) {
    Chunk& chunk = chunks[k];
    LineReader lines(window, chunk.begin, chunk.end);
    std::string_view line;
    while (lines.Next(&line)) {
      ++chunk.lines;
      if (!IsBlank(line)) ++chunk.rows;
    }
  });
  for (Chunk& chunk : chunks) {
    chunk.first_line = first_line;
    chunk.first_row = first_row;
    first_line += chunk.lines;
    first_row += chunk.rows;
  }
  return chunks;
}

// A categorical column's dictionary while the read runs: each distinct
// trimmed field and its provisional code, the order it was first seen in.
using Dictionary = std::map<std::string, size_t, std::less<>>;

constexpr size_t kNumeric = std::numeric_limits<size_t>::max();

class Parser {
 public:
  Parser(Windows& windows, const CsvReadOptions& options, bool encode)
      : windows_(windows), options_(options), encode_(encode) {}

  Result<CsvTable> Run();

 private:
  // Where a window's data was, for a second look at its fields.
  struct WindowSpan {
    size_t begin = 0;
    size_t end = 0;
    size_t first_row = 0;
    size_t rows = 0;
  };

  Result<size_t> ReadHeader(std::string_view window, size_t end, bool last);
  void ProbeWidth(std::string_view window, size_t end);
  void SetWidth(size_t width);
  Status ParseWindow(std::string_view window, size_t begin, size_t end,
                     bool last);
  void ParseChunk(std::string_view window, Chunk& chunk);
  size_t ParseNumbers(std::string_view line, size_t row);
  Status ParseRow(std::string_view line, size_t line_no, size_t row,
                  std::vector<std::string_view>& fields, Chunk& chunk);
  size_t ColumnOf(size_t field) const {
    return label_ >= 0 && field > static_cast<size_t>(label_) ? field - 1
                                                              : field;
  }
  Status Collect(std::string_view window, const std::vector<Chunk>& chunks,
                 const std::vector<size_t>& fields);
  Status CollectEarlierWindows();
  void EncodeCategorical();

  Windows& windows_;
  const CsvReadOptions& options_;
  const bool encode_;
  CsvTable table_;
  bool width_known_ = false;   // header read, or first data row probed
  int label_ = -1;             // label field index, -1 for none
  bool numbers_first_ = false;  // ParseRow tries ParseNumbers first
  size_t bad_label_line_ = 0;  // line whose row reports label_column
  size_t lines_ = 0;           // lines before the current window's data
  size_t rows_ = 0;            // rows the columns hold
  size_t max_rows_ = 0;        // rows they hold once this window is parsed
  size_t consumed_ = 0;        // bytes of input up to the window's data end
  // Encoding only, per field: the first window with a non-numeric field
  // (kNumeric while there is none) and the dictionary collected since.
  std::vector<size_t> categorical_from_;
  std::vector<Dictionary> dictionaries_;
  std::vector<WindowSpan> spans_;  // every window parsed so far
};

Result<CsvTable> Parser::Run() {
  const StopToken* stop = options_.stop;
  if (stop != nullptr && stop->ShouldStop()) {
    return StopStatus(*stop, "csv read");
  }
  HIDO_RETURN_IF_ERROR(windows_.Start());
  while (true) {
    const std::string_view window = windows_.current();
    const bool last = windows_.last();
    const size_t end = WholeLinesEnd(window, last);
    size_t begin = 0;
    if (!width_known_ && options_.has_header) {
      const Result<size_t> data_begin = ReadHeader(window, end, last);
      if (!data_begin.ok()) return data_begin.status();
      begin = data_begin.value();
    } else if (!width_known_) {
      ProbeWidth(window, end);
    }
    HIDO_RETURN_IF_ERROR(ParseWindow(window, begin, end, last));
    if (last) break;
    windows_.Advance();
  }
  const int label_column = options_.label_column;
  if (label_column >= 0 && label_ < 0 && table_.width > 0) {
    return Status::InvalidArgument("csv: label_column out of range");
  }
  table_.num_rows = rows_;
  if (encode_) {
    HIDO_RETURN_IF_ERROR(CollectEarlierWindows());
    EncodeCategorical();
  }
  return std::move(table_);
}

// Reads the header among the window's whole lines [0, end) and returns
// where the data starts; a window of blank lines (when they are skipped)
// is all consumed, and the header looked for in the next one.
Result<size_t> Parser::ReadHeader(std::string_view window, size_t end,
                                  bool last) {
  LineReader reader(window, 0, end);
  std::string_view line;
  while (reader.Next(&line)) {
    ++lines_;
    if (options_.skip_blank_lines && IsBlank(line)) continue;
    std::vector<std::string_view> fields;
    HIDO_RETURN_IF_ERROR(SplitChecked(line, lines_, options_, &fields));
    for (const std::string_view name : fields) {
      table_.header.emplace_back(Trim(name));
    }
    SetWidth(table_.header.size());
    return reader.pos();
  }
  if (last) return Status::ParseError("csv: missing header line");
  return end;
}

// Without a header the first data row fixes the width, and there a label
// column past it fails the read (after the row's structural checks). The
// row stays data: this only looks. A window of skipped blank lines leaves
// the width to the next window.
void Parser::ProbeWidth(std::string_view window, size_t end) {
  LineReader probe(window, 0, end);
  size_t line_no = lines_;
  std::string_view line;
  while (probe.Next(&line)) {
    ++line_no;
    if (IsBlank(line)) {
      if (options_.skip_blank_lines) continue;
      SetWidth(0);
      return;
    }
    const int label_column = options_.label_column;
    const size_t width = 1 + static_cast<size_t>(std::count(
                                 line.begin(), line.end(), options_.delimiter));
    if (label_column >= 0 && static_cast<size_t>(label_column) >= width) {
      bad_label_line_ = line_no;
    }
    SetWidth(width);
    return;
  }
}

void Parser::SetWidth(size_t width) {
  width_known_ = true;
  table_.width = width;
  const int label_column = options_.label_column;
  if (label_column >= 0 && static_cast<size_t>(label_column) < width) {
    label_ = label_column;
  }
  table_.columns.resize(width - (label_ >= 0 ? 1 : 0));
  // The fields ParseNumbers reads must be ones SplitChecked passes and
  // splits where the numbers end, in the columns of the same index: no
  // label column (nor a label column out of range), a width within the
  // column cap, and a delimiter that cannot be part of a finite number.
  numbers_first_ =
      width > 0 && label_column < 0 &&
      (options_.max_columns == 0 || width <= options_.max_columns) &&
      std::string_view("+-.0123456789Ee").find(options_.delimiter) ==
          std::string_view::npos;
  if (encode_) {
    categorical_from_.assign(width, kNumeric);
    dictionaries_.resize(width);
  }
}

// Parses the window's data lines [begin, end) into the columns, each grown
// by the window's rows, while the pool also reads the next window.
Status Parser::ParseWindow(std::string_view window, size_t begin, size_t end,
                           bool last) {
  std::vector<Chunk> chunks = CountedChunks(window, begin, end, lines_, rows_);
  size_t lines = 0;
  size_t rows = 0;
  for (const Chunk& chunk : chunks) {
    lines += chunk.lines;
    rows += chunk.rows;
  }
  // A row of `width` fields holds width - 1 delimiters and, unless it is
  // the input's last line, a '\n', so whole rows fill at most
  // bytes / width + 1 of the window's lines. Beyond that some row is short,
  // and the first short row is among the first bytes / width + 1: the
  // columns never grow by more, whatever the input claims.
  const size_t width = table_.width;
  max_rows_ =
      rows_ + (width == 0 ? 0 : std::min(rows, (end - begin) / width + 1));
  // Columns reserve here, on one thread, so their buffers come from one
  // malloc arena (reserving on the pool's workers spread them over
  // per-thread arenas that kept more memory resident), then the pool
  // zero-fills the window's rows, faulting their pages in. The reserve
  // projects the rows read onto the rest of the input when its size is
  // known, so a file's columns are allocated once: the freed steps of
  // doubling stayed resident, 13 MB more at peak on the benchmark input
  // (DESIGN, "Ingest path"). Rows that get shorter along the input make the
  // projection overshoot, in address space only (capacity past the rows
  // parsed is never touched); it stays within 16 times the rows read,
  // which still allocates a file of about 16 windows once. A pipe's
  // columns double.
  consumed_ += end;
  if (!table_.columns.empty() && table_.columns[0].capacity() < max_rows_) {
    size_t capacity = 2 * max_rows_;
    if (windows_.size() > consumed_) {
      const double projected =
          static_cast<double>(max_rows_) *
              static_cast<double>(windows_.size()) /
              static_cast<double>(consumed_) +
          static_cast<double>(max_rows_ - rows_);
      capacity = std::max(
          max_rows_, static_cast<size_t>(std::min(
                         projected, 16.0 * static_cast<double>(max_rows_))));
    }
    for (std::vector<double>& column : table_.columns) {
      column.reserve(capacity);
    }
  }
  ParallelFor(table_.columns.size(), HardwareThreads(),
              [&](size_t j, size_t) { table_.columns[j].resize(max_rows_); });
  if (label_ >= 0) table_.labels.resize(max_rows_);

  Status prefetched;
  ParallelFor(chunks.size() + 1, HardwareThreads(), [&](size_t k, size_t) {
    if (k > 0) {
      ParseChunk(window, chunks[k - 1]);
    } else if (!last) {
      prefetched = windows_.Prefetch(end);
    }
  });
  for (const Chunk& chunk : chunks) HIDO_RETURN_IF_ERROR(chunk.error);
  HIDO_RETURN_IF_ERROR(prefetched);
  // No row was short, so every row of the window fit (see above).
  lines_ += lines;
  const size_t first_row = rows_;
  rows_ = max_rows_;
  if (!encode_) return Status::Ok();

  // A column turns categorical in the window that shows its first
  // non-numeric field; from there on each window's fields are collected
  // while the window is at hand. Earlier windows are read again at the end.
  const size_t index = spans_.size();
  spans_.push_back({begin, end, first_row, rows});
  std::vector<size_t> fields;
  for (size_t c = 0; c < width; ++c) {
    for (size_t k = 0; k < chunks.size() && categorical_from_[c] == kNumeric;
         ++k) {
      if (!chunks[k].non_numeric.empty() && chunks[k].non_numeric[c] != 0) {
        categorical_from_[c] = index;
      }
    }
    if (categorical_from_[c] != kNumeric) fields.push_back(c);
  }
  return Collect(window, chunks, fields);
}

void Parser::ParseChunk(std::string_view window, Chunk& chunk) {
  const StopToken* stop = options_.stop;
  LineReader lines(window, chunk.begin, chunk.end);
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

// Reads the leading fields of `line` as finite numbers into row `row` of
// the columns, from_chars reading each from its field's first byte up to
// the delimiter, or for the last of `width` fields up to the line's end,
// and returns how many it read: `width` for a line of such numbers alone.
// It stops at the first field of any other kind (empty, signed with '+',
// padded, missing, non-numeric, out of range, holding a NUL or over
// max_field_bytes), and on a line of fewer or more than `width` fields.
// ParseRow reads the rest of such a line field by field and words any
// error.
size_t Parser::ParseNumbers(std::string_view line, size_t row) {
  const char* field = line.data();
  const char* const end = field + line.size();
  const size_t width = table_.width;
  const size_t cap = options_.max_field_bytes;
  for (size_t c = 0; c < width; ++c) {
    double value = 0.0;
    const auto [next, ec] = std::from_chars(field, end, value);
    const bool last = c + 1 == width;
    if (ec != std::errc() || !std::isfinite(value) ||
        (cap != 0 && static_cast<size_t>(next - field) > cap) ||
        (last ? next != end : next == end || *next != options_.delimiter)) {
      return c;
    }
    table_.columns[c][row] = value;
    if (!last) field = next + 1;
  }
  return width;
}

Status Parser::ParseRow(std::string_view line, size_t line_no, size_t row,
                        std::vector<std::string_view>& fields,
                        Chunk& chunk) {
  const size_t width = table_.width;
  // Fields ParseNumbers read: those SplitChecked and the loop below would
  // read to the same values, so the loop starts after them.
  size_t read = 0;
  if (numbers_first_) {
    read = ParseNumbers(line, row);
    if (read == width) return Status::Ok();
  }
  HIDO_RETURN_IF_ERROR(SplitChecked(line, line_no, options_, &fields));
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
  size_t column = read;  // no label column when read > 0
  for (size_t c = read; c < width; ++c) {
    const std::string_view field = fields[c];
    if (static_cast<int>(c) == label_) {
      const Result<int32_t> label = ParseLabel(field, line_no);
      if (!label.ok()) return label.status();
      table_.labels[row] = label.value();
      continue;
    }
    double& cell = table_.columns[column++][row];
    if (ParseFinite(field, &cell)) continue;
    if (IsMissingToken(field)) {
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

// Gives the cells of `fields` (field indices) in the chunks' rows their
// provisional codes: each trimmed field's place in its column's dictionary,
// which grows by the fields it has not seen. A missing cell stays NaN. Only
// a file that changed since it was parsed can fail this.
Status Parser::Collect(std::string_view window,
                       const std::vector<Chunk>& chunks,
                       const std::vector<size_t>& fields) {
  if (fields.empty() || chunks.empty()) return Status::Ok();
  const size_t first_row = chunks.front().first_row;
  const size_t rows = chunks.back().first_row + chunks.back().rows - first_row;
  std::vector<std::vector<std::string_view>> values(
      fields.size(), std::vector<std::string_view>(rows));
  std::vector<char> ragged(chunks.size(), 0);
  ParallelFor(chunks.size(), HardwareThreads(), [&](size_t k, size_t) {
    LineReader lines(window, chunks[k].begin, chunks[k].end);
    std::vector<std::string_view> split;
    size_t row = chunks[k].first_row - first_row;
    std::string_view line;
    while (lines.Next(&line)) {
      if (IsBlank(line)) continue;
      SplitFields(line, options_.delimiter, &split);
      if (split.size() != table_.width) {
        ragged[k] = 1;
        return;
      }
      for (size_t i = 0; i < fields.size(); ++i) {
        values[i][row] = Trim(split[fields[i]]);
      }
      ++row;
    }
  });
  if (std::find(ragged.begin(), ragged.end(), 1) != ragged.end()) {
    return Status::IoError("csv: the input changed while it was read");
  }
  ParallelFor(fields.size(), HardwareThreads(), [&](size_t i, size_t) {
    std::vector<double>& column = table_.columns[ColumnOf(fields[i])];
    Dictionary& dictionary = dictionaries_[fields[i]];
    for (size_t r = 0; r < rows; ++r) {
      const std::string_view field = values[i][r];
      double& cell = column[first_row + r];
      if (IsMissingToken(field)) {
        cell = kNaN;
        continue;
      }
      auto entry = dictionary.find(field);
      if (entry == dictionary.end()) {
        entry = dictionary.emplace(field, dictionary.size()).first;
      }
      cell = static_cast<double>(entry->second);
    }
  });
  return Status::Ok();
}

// A column that turned categorical after the first window still needs the
// fields of the windows before: those windows are read again (text where
// it lies, a file from its start, a pipe from the copy it was opened to
// keep; without one the read fails), and only for such columns. The stop
// token is polled once per window read again.
Status Parser::CollectEarlierWindows() {
  size_t windows = 0;
  for (const size_t from : categorical_from_) {
    if (from != kNumeric) windows = std::max(windows, from);
  }
  if (windows == 0) return Status::Ok();
  HIDO_RETURN_IF_ERROR(windows_.Rewind());
  const StopToken* stop = options_.stop;
  for (size_t index = 0; index < windows; ++index) {
    if (stop != nullptr && stop->ShouldStop()) {
      return StopStatus(*stop, "csv read");
    }
    const WindowSpan& span = spans_[index];
    const std::string_view window = windows_.current();
    if (window.size() < span.end) {
      return Status::IoError("csv: the input changed while it was read");
    }
    const std::vector<Chunk> chunks =
        CountedChunks(window, span.begin, span.end, /*first_line=*/0,
                      span.first_row);
    size_t rows = 0;
    for (const Chunk& chunk : chunks) rows += chunk.rows;
    if (rows != span.rows) {
      return Status::IoError("csv: the input changed while it was read");
    }
    std::vector<size_t> fields;
    for (size_t c = 0; c < categorical_from_.size(); ++c) {
      if (categorical_from_[c] != kNumeric && categorical_from_[c] > index) {
        fields.push_back(c);
      }
    }
    HIDO_RETURN_IF_ERROR(Collect(window, chunks, fields));
    if (index + 1 < windows) {
      HIDO_RETURN_IF_ERROR(windows_.Prefetch(span.end));
      windows_.Advance();
    }
  }
  return Status::Ok();
}

// Sorts each categorical column's dictionary and turns its provisional
// codes into ranks: the code of a value is its index in the sorted
// distinct values.
void Parser::EncodeCategorical() {
  std::vector<size_t> fields;
  for (size_t c = 0; c < categorical_from_.size(); ++c) {
    if (categorical_from_[c] != kNumeric) {
      fields.push_back(c);
      table_.categorical.push_back(ColumnOf(c));
    }
  }
  table_.dictionaries.resize(fields.size());
  ParallelFor(fields.size(), HardwareThreads(), [&](size_t i, size_t) {
    const Dictionary& dictionary = dictionaries_[fields[i]];
    std::vector<double> rank(dictionary.size());
    std::vector<std::string>& values = table_.dictionaries[i];
    values.reserve(dictionary.size());
    for (const auto& [value, code] : dictionary) {
      rank[code] = static_cast<double>(values.size());
      values.push_back(value);
    }
    for (double& cell : table_.columns[table_.categorical[i]]) {
      if (!std::isnan(cell)) cell = rank[static_cast<size_t>(cell)];
    }
  });
}

}  // namespace

Result<CsvTable> ParseCsv(const CsvSource& source,
                          const CsvReadOptions& options,
                          bool encode_categorical, size_t window_bytes) {
  HIDO_CHECK_MSG(window_bytes > 0 && window_bytes % kCsvChunkBytes == 0,
                 "window of %zu bytes", window_bytes);
  if (source.path == nullptr) {
    Windows windows(source.text, window_bytes);
    return Parser(windows, options, encode_categorical).Run();
  }
  // Only an encoding read may look at earlier windows again.
  Result<SequentialFile> file =
      SequentialFile::Open(*source.path, /*rewindable=*/encode_categorical);
  if (!file.ok()) return file.status();
  Windows windows(&file.value(), window_bytes);
  return Parser(windows, options, encode_categorical).Run();
}

}  // namespace internal
}  // namespace hido
