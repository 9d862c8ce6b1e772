// Round-trip property: for randomized datasets (shape, missing cells,
// labels), Write -> Read reproduces the dataset exactly (values via %.17g,
// masks, names, labels). Differential property: on damaged input, small
// or spanning many parse chunks or read windows, ReadCsvString (and
// ReadCsv from a file or a FIFO, and the encoded reads) return exactly
// what the sequential oracle returns.

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>
#include <tuple>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/string_util.h"
#include "data/csv.h"
#include "data/csv_parser.h"
#include "data/encoding.h"
#include "data/generators/synthetic.h"
#include "testing/csv_oracle.h"

namespace hido {
namespace {

// Same Status (code and message), or the same Dataset: values bitwise,
// missing masks, column names and labels.
void ExpectSameRead(const Result<Dataset>& got, const Result<Dataset>& want) {
  ASSERT_EQ(got.ok(), want.ok())
      << "got " << got.status().ToString() << ", oracle "
      << want.status().ToString();
  if (!want.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code());
    EXPECT_EQ(got.status().message(), want.status().message());
    return;
  }
  const Dataset& a = got.value();
  const Dataset& b = want.value();
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_cols(), b.num_cols());
  for (size_t c = 0; c < a.num_cols(); ++c) {
    EXPECT_EQ(a.ColumnName(c), b.ColumnName(c));
    if (a.num_rows() > 0) {
      ASSERT_EQ(std::memcmp(a.Column(c).data(), b.Column(c).data(),
                            a.num_rows() * sizeof(double)),
                0)
          << "column " << c;
    }
    for (size_t r = 0; r < a.num_rows(); ++r) {
      ASSERT_EQ(a.IsMissing(r, c), b.IsMissing(r, c)) << r << "," << c;
    }
  }
  EXPECT_EQ(a.labels(), b.labels());
}

// The encoded read's counterpart: the same Status, or the same data and
// the same categorical columns with the same dictionaries.
void ExpectSameEncodedRead(const Result<EncodedDataset>& got,
                           const Result<EncodedDataset>& want) {
  ASSERT_EQ(got.ok(), want.ok())
      << "got " << got.status().ToString() << ", oracle "
      << want.status().ToString();
  if (!want.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code());
    EXPECT_EQ(got.status().message(), want.status().message());
    return;
  }
  ExpectSameRead(got.value().data, want.value().data);
  const std::vector<CategoricalMapping>& a = got.value().categorical;
  const std::vector<CategoricalMapping>& b = want.value().categorical;
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].column, b[i].column);
    EXPECT_EQ(a[i].values, b[i].values) << "column " << a[i].column;
  }
}

// A path unique to the running test, under the test temp directory.
std::string TestPath(const std::string& suffix) {
  std::string name =
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  for (char& c : name) {
    if (c == '/') c = '_';
  }
  return ::testing::TempDir() + "/hido_csv_property_" + name + suffix;
}

// How a windowed read gets its bytes.
enum class Via { kText, kFile, kFifo };

// Reads `text` through `read` (a windowed entry point taking a source)
// from memory, from a regular file or from a FIFO a writer thread fills.
template <typename Read>
auto ReadVia(Via via, const std::string& text, Read read) {
  if (via == Via::kText) return read(internal::CsvSource{nullptr, text});
  const std::string path = TestPath(via == Via::kFile ? ".csv" : ".fifo");
  std::remove(path.c_str());
  if (via == Via::kFile) {
    std::ofstream(path, std::ios::binary) << text;
    auto result = read(internal::CsvSource{&path, {}});
    std::remove(path.c_str());
    return result;
  }
  EXPECT_EQ(::mkfifo(path.c_str(), 0600), 0);
  // A read that fails early closes the FIFO before the writer is done:
  // the writer then sees EPIPE instead of a fatal SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  std::thread writer([&] { std::ofstream(path, std::ios::binary) << text; });
  auto result = read(internal::CsvSource{&path, {}});
  writer.join();
  std::remove(path.c_str());
  return result;
}

// Small read windows: a few MiB of text span several of them.
constexpr size_t kTestWindowBytes = 2 * kCsvChunkBytes;

// Every windowed read of `text` (numeric and encoded; from memory, a file
// and a FIFO) agrees with the oracle.
void ExpectWindowedReadsMatchOracle(const std::string& text,
                                    const CsvReadOptions& opts) {
  const Result<Dataset> want = oracle::ReadCsvString(text, opts);
  const Result<EncodedDataset> want_encoded =
      oracle::ReadCsvEncodedString(text, opts);
  for (const Via via : {Via::kText, Via::kFile, Via::kFifo}) {
    SCOPED_TRACE(via == Via::kText ? "text" : via == Via::kFile ? "file"
                                                                : "fifo");
    ExpectSameRead(
        ReadVia(via, text,
                [&](const internal::CsvSource& source) {
                  return internal::ReadCsvWindowed(source, opts,
                                                   kTestWindowBytes);
                }),
        want);
    ExpectSameEncodedRead(
        ReadVia(via, text,
                [&](const internal::CsvSource& source) {
                  return internal::ReadCsvEncodedWindowed(source, opts,
                                                          kTestWindowBytes);
                }),
        want_encoded);
  }
}

// (rows, cols, missing_permille, with_labels, seed)
using CsvCase = std::tuple<size_t, size_t, size_t, bool, uint64_t>;

class CsvRoundTripProperty : public ::testing::TestWithParam<CsvCase> {};

TEST_P(CsvRoundTripProperty, WriteReadIsIdentity) {
  const auto [rows, cols, missing_permille, with_labels, seed] = GetParam();
  Rng rng(seed);
  Dataset original(cols);
  for (size_t c = 0; c < cols; ++c) {
    original.SetColumnName(c, "col_" + std::to_string(c));
  }
  std::vector<double> row(cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      // Adversarial values: scales, negatives, many digits.
      const double magnitude = std::pow(10.0, rng.UniformInt(-8, 8));
      row[c] = (rng.Bernoulli(0.5) ? 1 : -1) * rng.UniformDouble() *
               magnitude;
      if (rng.Bernoulli(static_cast<double>(missing_permille) / 1000.0)) {
        row[c] = std::numeric_limits<double>::quiet_NaN();
      }
    }
    original.AppendRow(row);
  }
  if (with_labels) {
    std::vector<int32_t> labels(rows);
    for (int32_t& label : labels) {
      label = static_cast<int32_t>(rng.UniformInt(-5, 20));
    }
    original.SetLabels(std::move(labels));
  }

  CsvReadOptions ropts;
  if (with_labels) ropts.label_column = static_cast<int>(cols);
  const Result<Dataset> restored =
      ReadCsvString(WriteCsvString(original), ropts);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const Dataset& back = restored.value();

  ASSERT_EQ(back.num_rows(), rows);
  ASSERT_EQ(back.num_cols(), cols);
  for (size_t c = 0; c < cols; ++c) {
    EXPECT_EQ(back.ColumnName(c), original.ColumnName(c));
  }
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      ASSERT_EQ(back.IsMissing(r, c), original.IsMissing(r, c))
          << r << "," << c;
      if (!original.IsMissing(r, c)) {
        EXPECT_EQ(back.Get(r, c), original.Get(r, c)) << r << "," << c;
      }
    }
    if (with_labels) {
      EXPECT_EQ(back.Label(r), original.Label(r));
    }
  }
}

// Robustness property: start from a valid CSV, hit it with random byte-level
// damage (truncation, NUL injection, garbage bytes, delimiter insertion,
// chunk duplication, giant fields), and the reader must either parse it —
// ragged damage can cancel out — or return a structured "csv:" parse error;
// it must never crash or hang. Successful parses must stay within the
// structural caps.
class CsvMutationProperty : public ::testing::TestWithParam<uint64_t> {};

// A valid CSV, regenerated from the seed, hit with random byte-level
// damage: truncation, NUL injection, garbage bytes, delimiter insertion,
// chunk duplication, giant fields.
std::string MutatedCsv(uint64_t seed) {
  Rng rng(seed);
  std::string text = "alpha,beta,gamma\n";
  const size_t rows = 3 + rng.UniformIndex(20);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < 3; ++c) {
      if (c > 0) text.push_back(',');
      text += std::to_string(rng.UniformInt(-1000, 1000));
    }
    text.push_back('\n');
  }

  const size_t mutations = 1 + rng.UniformIndex(4);
  for (size_t m = 0; m < mutations && !text.empty(); ++m) {
    const size_t pos = rng.UniformIndex(text.size());
    switch (rng.UniformIndex(6)) {
      case 0:  // truncate
        text.resize(pos);
        break;
      case 1:  // inject a NUL byte
        text.insert(text.begin() + static_cast<ptrdiff_t>(pos), '\0');
        break;
      case 2:  // overwrite with a random byte (possibly non-ASCII)
        text[pos] = static_cast<char>(rng.UniformIndex(256));
        break;
      case 3:  // extra delimiter (ragged row)
        text.insert(text.begin() + static_cast<ptrdiff_t>(pos), ',');
        break;
      case 4: {  // duplicate a chunk
        const size_t len = std::min<size_t>(text.size() - pos,
                                            1 + rng.UniformIndex(32));
        text.insert(pos, text.substr(pos, len));
        break;
      }
      case 5:  // splice in an oversized field
        text.insert(pos, std::string(5000, 'x'));
        break;
    }
  }
  return text;
}

// Robustness property: the reader must either parse the damaged text —
// ragged damage can cancel out — or return a structured "csv:" parse
// error; it must never crash or hang. Successful parses must stay within
// the structural caps.
TEST_P(CsvMutationProperty, MutatedInputFailsCleanlyOrParses) {
  const std::string text = MutatedCsv(GetParam());
  CsvReadOptions opts;
  const Result<Dataset> r = ReadCsvString(text, opts);
  if (!r.ok()) {
    EXPECT_TRUE(r.status().code() == StatusCode::kParseError ||
                r.status().code() == StatusCode::kInvalidArgument)
        << r.status().ToString();
    EXPECT_EQ(r.status().message().rfind("csv:", 0), 0u)
        << "error lacks csv context: " << r.status().ToString();
  } else {
    EXPECT_LE(r.value().num_cols(), opts.max_columns);
  }
}

TEST_P(CsvMutationProperty, ReaderMatchesSequentialOracle) {
  const std::string text = MutatedCsv(GetParam());
  for (const bool header : {true, false}) {
    CsvReadOptions opts;
    opts.has_header = header;
    opts.label_column = GetParam() % 3 == 0 ? 1 : -1;
    opts.skip_blank_lines = GetParam() % 2 == 0;
    ExpectSameRead(ReadCsvString(text, opts), oracle::ReadCsvString(text, opts));
  }
}

// The encoded reads, from memory and from a file, agree with the encoded
// oracle on the same damaged inputs: garbage bytes turn columns
// categorical, which the numeric read refuses.
TEST_P(CsvMutationProperty, EncodedReaderMatchesOracle) {
  const std::string text = MutatedCsv(GetParam());
  for (const bool header : {true, false}) {
    CsvReadOptions opts;
    opts.has_header = header;
    opts.label_column = GetParam() % 3 == 0 ? 1 : -1;
    opts.skip_blank_lines = GetParam() % 2 == 0;
    const Result<EncodedDataset> want =
        oracle::ReadCsvEncodedString(text, opts);
    ExpectSameEncodedRead(ReadCsvEncodedString(text, opts), want);
    const std::string path = TestPath(".csv");
    std::ofstream(path, std::ios::binary) << text;
    ExpectSameEncodedRead(ReadCsvEncoded(path, opts), want);
    std::remove(path.c_str());
  }
}

// Multi-chunk inputs: several MiB of rows in the formats the reader
// meets (%.17g, integers, signs, padding, missing tokens, CRLF, blank
// lines), with damage placed a few bytes before and after chunk
// boundaries, so that chunk stitching and the first-error order are
// what decides the result.
class CsvChunkBoundaryProperty : public ::testing::TestWithParam<uint64_t> {};

std::string RandomField(Rng& rng) {
  switch (rng.UniformIndex(8)) {
    case 0:
      return std::to_string(rng.UniformInt(-100000, 100000));
    case 1:
      return " +" + std::to_string(rng.UniformInt(0, 999)) + " ";
    case 2: {
      static const char* const kMissing[] = {"?", "", "NA", " nan ", "Null"};
      return kMissing[rng.UniformIndex(5)];
    }
    default:
      return StrFormat("%.17g", (rng.UniformDouble() - 0.5) *
                                    std::pow(10.0, rng.UniformInt(-30, 30)));
  }
}

TEST_P(CsvChunkBoundaryProperty, ReaderMatchesSequentialOracle) {
  Rng rng(GetParam());
  CsvReadOptions opts;
  opts.has_header = rng.Bernoulli(0.7);
  opts.skip_blank_lines = rng.Bernoulli(0.7);
  opts.delimiter = rng.Bernoulli(0.8) ? ',' : ';';
  if (rng.Bernoulli(0.3)) opts.max_field_bytes = 64;
  const size_t cols = 2 + rng.UniformIndex(10);
  if (rng.Bernoulli(0.5)) {
    opts.label_column = static_cast<int>(rng.UniformIndex(cols));
  }
  const char* eol = rng.Bernoulli(0.3) ? "\r\n" : "\n";

  std::string text;
  if (opts.has_header) {
    for (size_t c = 0; c < cols; ++c) {
      if (c > 0) text.push_back(opts.delimiter);
      text += " name" + std::to_string(c);
    }
    text += eol;
  }
  const size_t target =
      8 * kCsvChunkBytes + rng.UniformIndex(4 * kCsvChunkBytes);
  while (text.size() < target) {
    // Blank lines, where they are allowed: elsewhere only damage adds one.
    if (opts.skip_blank_lines && rng.Bernoulli(0.002)) text += eol;
    for (size_t c = 0; c < cols; ++c) {
      if (c > 0) text.push_back(opts.delimiter);
      text += static_cast<int>(c) == opts.label_column
                  ? std::to_string(rng.UniformInt(-3, 3))
                  : RandomField(rng);
    }
    text += eol;
  }

  const size_t damages = rng.UniformIndex(5);
  for (size_t m = 0; m < damages; ++m) {
    const size_t boundary =
        kCsvChunkBytes * (1 + rng.UniformIndex(text.size() / kCsvChunkBytes));
    const size_t pos = std::min(text.size() - 1,
                                boundary - 48 + rng.UniformIndex(96));
    switch (rng.UniformIndex(7)) {
      case 0:
        text.insert(text.begin() + static_cast<ptrdiff_t>(pos), '\0');
        break;
      case 1:
        text[pos] = "x,\n;9-"[rng.UniformIndex(6)];
        break;
      case 2:
        text.insert(text.begin() + static_cast<ptrdiff_t>(pos),
                    opts.delimiter);
        break;
      case 3:
        text.erase(pos, 1);
        break;
      case 4:
        text.insert(pos, "\n\n");
        break;
      case 5:
        text.insert(pos, std::string(100, '7'));
        break;
      case 6:
        text.insert(pos, "4294967297");
        break;
    }
  }
  if (rng.Bernoulli(0.2)) text.resize(text.size() - rng.UniformIndex(64));

  ExpectSameRead(ReadCsvString(text, opts), oracle::ReadCsvString(text, opts));
}

// Inputs of three to five read windows (at kTestWindowBytes) in the
// formats the reader meets, now and then with a categorical column or a
// numeric one whose first word comes in the last window, damaged within
// 48 bytes of where windows are cut or start. Each seed also builds some of
// the shapes that stress the carry-over (seed % 5 picks one for sure): a
// CRLF split across a cut, a header ending exactly on one, a line longer
// than a window, blank lines at a window start, no trailing newline.
class CsvWindowBoundaryProperty : public ::testing::TestWithParam<uint64_t> {
};

// Where the reader cuts `text` into windows of kTestWindowBytes: each
// window's raw end and, when it differs, the line start the next window
// opens with (a window that holds no line end grows to twice its size).
std::vector<size_t> WindowCuts(const std::string& text) {
  std::vector<size_t> cuts;
  size_t start = 0;
  size_t capacity = kTestWindowBytes;
  while (start + capacity < text.size()) {
    const size_t cut = start + capacity;
    const size_t newline = text.rfind('\n', cut - 1);
    const size_t next =
        newline == std::string::npos || newline < start ? start : newline + 1;
    cuts.push_back(cut);
    if (next != start && next != cut) cuts.push_back(next);
    capacity = std::max(kTestWindowBytes, 2 * (cut - next));
    start = next;
  }
  return cuts;
}

// A window cut of `text` picked by `rng`, or 0 for a text of one window.
size_t SomeCut(const std::string& text, Rng& rng) {
  const std::vector<size_t> cuts = WindowCuts(text);
  return cuts.empty() ? 0 : cuts[rng.UniformIndex(cuts.size())];
}

// The start of the line holding text[pos].
size_t LineStart(const std::string& text, size_t pos) {
  const size_t newline =
      pos == 0 ? std::string::npos : text.rfind('\n', pos - 1);
  return newline == std::string::npos ? 0 : newline + 1;
}

TEST_P(CsvWindowBoundaryProperty, WindowedReadsMatchOracle) {
  Rng rng(GetParam());
  const size_t shape = GetParam() % 5;
  const bool crlf_split = shape == 0 || rng.Bernoulli(0.3);
  const bool header_on_cut = shape == 1 || rng.Bernoulli(0.3);
  const bool long_line = shape == 2 || rng.Bernoulli(0.3);
  const bool blank_at_cut = shape == 3 || rng.Bernoulli(0.3);
  const bool no_final_newline = shape == 4 || rng.Bernoulli(0.3);

  CsvReadOptions opts;
  opts.has_header = header_on_cut || rng.Bernoulli(0.7);
  // No trailing newline also comes as a lone '\r' after the last CRLF,
  // which must not read as a (blank) line.
  opts.skip_blank_lines = shape != 4 && rng.Bernoulli(0.8);
  opts.delimiter = rng.Bernoulli(0.8) ? ',' : ';';
  if (rng.Bernoulli(0.3)) opts.max_field_bytes = 64;
  if (crlf_split) opts.max_field_bytes = 4096;  // room for the padding
  if (long_line && rng.Bernoulli(0.5)) opts.max_field_bytes = 0;
  if (header_on_cut) opts.max_field_bytes = 0;  // a window-long name
  const size_t cols = 2 + rng.UniformIndex(6);
  if (rng.Bernoulli(0.4)) {
    opts.label_column = static_cast<int>(rng.UniformIndex(cols));
  }
  const std::string eol =
      crlf_split || shape == 4 || rng.Bernoulli(0.3) ? "\r\n" : "\n";
  const size_t categorical = rng.Bernoulli(0.4) ? rng.UniformIndex(cols) : cols;
  const size_t late_word = rng.Bernoulli(0.5) ? rng.UniformIndex(cols) : cols;
  static const char* const kWords[] = {"red", " teal ", "?", "ochre", "Red"};

  std::string text;
  if (opts.has_header) {
    std::string header;
    for (size_t c = 0; c < cols; ++c) {
      if (c > 0) header.push_back(opts.delimiter);
      header += " name" + std::to_string(c);
    }
    if (header_on_cut) {
      // The header's line end is the first window's last byte.
      header.insert(0, kTestWindowBytes - header.size() - eol.size(), 'h');
    }
    text = header + eol;
  }
  const size_t target = text.size() + 3 * kTestWindowBytes +
                        rng.UniformIndex(2 * kTestWindowBytes);
  bool late_word_written = false;
  while (text.size() < target) {
    if (opts.skip_blank_lines && rng.Bernoulli(0.002)) text += eol;
    for (size_t c = 0; c < cols; ++c) {
      if (c > 0) text.push_back(opts.delimiter);
      if (static_cast<int>(c) == opts.label_column) {
        text += std::to_string(rng.UniformInt(-3, 3));
      } else if (c == categorical) {
        text += kWords[rng.UniformIndex(5)];
      } else if (c == late_word && !late_word_written &&
                 text.size() + kTestWindowBytes / 2 > target) {
        text += "late";
        late_word_written = true;
      } else {
        text += RandomField(rng);
      }
    }
    text += eol;
  }

  if (crlf_split) {
    // Pad the last line ending before a cut so that its '\r' is the
    // window's last byte and its '\n' the next window's first.
    const size_t cut = SomeCut(text, rng);
    const size_t crlf = text.rfind("\r\n", cut - 2);
    if (cut > 0 && crlf != std::string::npos && crlf + 1 < cut &&
        LineStart(text, crlf) > 0) {
      text.insert(crlf, cut - 1 - crlf, ' ');
    }
  }
  if (long_line) {
    // A row whose first field alone is longer than a window.
    const size_t at = LineStart(text, SomeCut(text, rng));
    if (at > 0) {
      std::string row = "1." + std::string(kTestWindowBytes +
                                           rng.UniformIndex(kTestWindowBytes),
                                           '0');
      for (size_t c = 1; c < cols; ++c) {
        row += opts.delimiter;
        row += static_cast<int>(c) == opts.label_column ? "1" : "2";
      }
      text.insert(at, row + eol);
    }
  }
  if (blank_at_cut) {
    const size_t at = LineStart(text, SomeCut(text, rng));
    if (at > 0) text.insert(at, rng.Bernoulli(0.5) ? eol + eol : "  " + eol);
  }

  // Half the inputs stay whole, so that reads also succeed.
  const size_t damages = rng.Bernoulli(0.5) ? 0 : 1 + rng.UniformIndex(3);
  for (size_t m = 0; m < damages; ++m) {
    const size_t cut = SomeCut(text, rng);
    if (cut < 48) continue;
    const size_t pos =
        std::min(text.size() - 1, cut - 48 + rng.UniformIndex(96));
    switch (rng.UniformIndex(7)) {
      case 0:
        text.insert(text.begin() + static_cast<ptrdiff_t>(pos), '\0');
        break;
      case 1:
        text[pos] = "x,\n;9-"[rng.UniformIndex(6)];
        break;
      case 2:
        text.insert(text.begin() + static_cast<ptrdiff_t>(pos),
                    opts.delimiter);
        break;
      case 3:
        text.erase(pos, 1);
        break;
      case 4:
        text.insert(pos, "\n\n");
        break;
      case 5:
        text.insert(pos, std::string(100, '7'));
        break;
      case 6:
        text.insert(pos, "4294967297");
        break;
    }
  }
  if (no_final_newline) {
    while (!text.empty() && (text.back() == '\n' || text.back() == '\r')) {
      text.pop_back();
    }
    if (eol == "\r\n" && (shape == 4 || rng.Bernoulli(0.5))) {
      text += "\r\n\r";
    }
  }
  ASSERT_GE(text.size(), 3 * kTestWindowBytes);

  ExpectWindowedReadsMatchOracle(text, opts);
}

// Three windows (at kTestWindowBytes) of rows whose column b is numeric
// up to the last row, which holds a word. Fewer than 1024 lines: a read's
// first pass polls a stop token once, at its start.
std::string LateWordText() {
  std::string text = "a,b\n";
  const std::string padding(2000, ' ');
  while (text.size() < 3 * kTestWindowBytes) text += padding + "0.5,1\n";
  return text + "2,late\n";
}

std::string NumericText() {
  std::string text = "a,b\n";
  for (int i = 0; text.size() < 3 * kTestWindowBytes; ++i) {
    text += std::to_string(i) + ".25," + std::to_string(i % 7) + "\n";
  }
  return text;
}

Result<EncodedDataset> ReadEncodedVia(Via via, const std::string& text,
                                      const CsvReadOptions& opts) {
  return ReadVia(via, text, [&](const internal::CsvSource& source) {
    return internal::ReadCsvEncodedWindowed(source, opts, kTestWindowBytes);
  });
}

// The copy an encoded read keeps of a pipe is best effort: where none can
// be made, a pipe whose columns are categorical from the first window on
// (or never) reads as before, and only a column whose first word comes
// later fails the read. A file needs no copy.
TEST(CsvWindowedReadTest, PipeWithoutCopyFailsOnlyWhenItMustReadAgain) {
  const char* old_tmpdir = std::getenv("TMPDIR");
  const std::string saved = old_tmpdir == nullptr ? "" : old_tmpdir;
  ASSERT_EQ(::setenv("TMPDIR", TestPath(".no-such-dir").c_str(), 1), 0);
  const CsvReadOptions opts;
  const std::string numeric = NumericText();
  ExpectSameEncodedRead(ReadEncodedVia(Via::kFifo, numeric, opts),
                        oracle::ReadCsvEncodedString(numeric, opts));
  const std::string late = LateWordText();
  ExpectSameEncodedRead(ReadEncodedVia(Via::kFile, late, opts),
                        oracle::ReadCsvEncodedString(late, opts));
  const Result<EncodedDataset> piped = ReadEncodedVia(Via::kFifo, late, opts);
  EXPECT_EQ(piped.status().code(), StatusCode::kIoError);
  EXPECT_NE(piped.status().message().find("no temporary copy"),
            std::string::npos)
      << piped.status().ToString();
  if (old_tmpdir == nullptr) {
    ::unsetenv("TMPDIR");
  } else {
    ::setenv("TMPDIR", saved.c_str(), 1);
  }
}

// Reading earlier windows again for a late categorical column polls the
// stop token once per window: a stop that fires there ends the read.
TEST(CsvWindowedReadTest, StopPolledWhileEarlierWindowsAreReadAgain) {
  const std::string text = LateWordText();
  ASSERT_LT(std::count(text.begin(), text.end(), '\n'), 1023);
  for (const Via via : {Via::kText, Via::kFile, Via::kFifo}) {
    SCOPED_TRACE(static_cast<int>(via));
    StopToken unarmed;
    CsvReadOptions opts;
    opts.stop = &unarmed;
    ExpectSameEncodedRead(ReadEncodedVia(via, text, opts),
                          oracle::ReadCsvEncodedString(text, {}));
    EXPECT_GT(unarmed.polls(), 2u);
    StopToken token;
    token.ArmFailpoint(2);  // the first poll after the first pass
    opts.stop = &token;
    const Result<EncodedDataset> read = ReadEncodedVia(via, text, opts);
    EXPECT_EQ(read.status().code(), StatusCode::kCancelled);
    EXPECT_EQ(read.status().message(), "csv read stopped (failpoint)");
    EXPECT_EQ(token.polls(), 2u);
  }
}

// The column cap is checked on a line's delimiter count before the line
// is split. Its error is the oracle's, also where a NUL byte comes first in
// the line and on an input with no '\n' that spans several windows.
TEST(CsvWindowedReadTest, ColumnCapMatchesOracle) {
  std::string cr_only = "a,b,c\r";
  while (cr_only.size() < 3 * kTestWindowBytes) cr_only += "1.5,2,3\r";
  const std::vector<std::string> texts = {
      "a,b,c\n1,2,3\n",   "a,b,c,d\n1,2,3,4\n", "a,b\n1,2\n,,,\n",
      std::string("a,b\n1\0,2,3,4\n", 13), ",,,\n", cr_only};
  for (const size_t cap : {1, 2, 3, 4, 1000}) {
    for (const std::string& text : texts) {
      for (const bool header : {true, false}) {
        SCOPED_TRACE(StrFormat("cap %zu, header %d, %zu bytes", cap,
                               header ? 1 : 0, text.size()));
        CsvReadOptions opts;
        opts.max_columns = cap;
        opts.has_header = header;
        ExpectWindowedReadsMatchOracle(text, opts);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(DamagedAtWindowCuts, CsvWindowBoundaryProperty,
                         ::testing::Range<uint64_t>(1, 33));

INSTANTIATE_TEST_SUITE_P(DamagedAtBoundaries, CsvChunkBoundaryProperty,
                         ::testing::Range<uint64_t>(1, 25));

INSTANTIATE_TEST_SUITE_P(MutatedCsv, CsvMutationProperty,
                         ::testing::Range<uint64_t>(1, 81));

INSTANTIATE_TEST_SUITE_P(
    RandomDatasets, CsvRoundTripProperty,
    ::testing::Values(CsvCase{1, 1, 0, false, 1},
                      CsvCase{50, 3, 0, false, 2},
                      CsvCase{30, 5, 100, false, 3},
                      CsvCase{40, 2, 300, true, 4},
                      CsvCase{100, 8, 50, true, 5},
                      CsvCase{7, 12, 0, true, 6}),
    [](const ::testing::TestParamInfo<CsvCase>& info) {
      return "r" + std::to_string(std::get<0>(info.param)) + "_c" +
             std::to_string(std::get<1>(info.param)) + "_m" +
             std::to_string(std::get<2>(info.param)) +
             (std::get<3>(info.param) ? "_lab" : "_nolab") + "_s" +
             std::to_string(std::get<4>(info.param));
    });

}  // namespace
}  // namespace hido
