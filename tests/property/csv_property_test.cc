// Round-trip property: for randomized datasets (shape, missing cells,
// labels), Write -> Read reproduces the dataset exactly (values via %.17g,
// masks, names, labels). Differential property: on damaged input, small
// or spanning many parse chunks, ReadCsvString returns exactly what the
// sequential oracle returns.

#include <cmath>
#include <cstring>
#include <tuple>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/string_util.h"
#include "data/csv.h"
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
