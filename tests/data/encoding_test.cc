#include "data/encoding.h"

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/run_control.h"
#include "common/status.h"
#include "common/string_util.h"

namespace hido {
namespace {

TEST(EncodingTest, NumericColumnsPassThrough) {
  const Result<EncodedDataset> r =
      ReadCsvEncodedString("a,b\n1.5,2\n3,4\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.value().categorical.empty());
  EXPECT_DOUBLE_EQ(r.value().data.Get(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(r.value().data.Get(1, 1), 4.0);
}

TEST(EncodingTest, CategoricalColumnOrdinalEncoded) {
  const Result<EncodedDataset> r =
      ReadCsvEncodedString("color,x\nred,1\nblue,2\ngreen,3\nred,4\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const EncodedDataset& encoded = r.value();
  ASSERT_EQ(encoded.categorical.size(), 1u);
  EXPECT_EQ(encoded.categorical[0].column, 0u);
  // Sorted distinct values: blue=0, green=1, red=2.
  EXPECT_EQ(encoded.categorical[0].values,
            (std::vector<std::string>{"blue", "green", "red"}));
  EXPECT_DOUBLE_EQ(encoded.data.Get(0, 0), 2.0);  // red
  EXPECT_DOUBLE_EQ(encoded.data.Get(1, 0), 0.0);  // blue
  EXPECT_DOUBLE_EQ(encoded.data.Get(2, 0), 1.0);  // green
  EXPECT_DOUBLE_EQ(encoded.data.Get(3, 0), 2.0);  // red
}

TEST(EncodingTest, DecodeRoundTrip) {
  const Result<EncodedDataset> r =
      ReadCsvEncodedString("kind\ncat\ndog\ncat\n");
  ASSERT_TRUE(r.ok());
  const EncodedDataset& encoded = r.value();
  EXPECT_EQ(encoded.Decode(0, encoded.data.Get(0, 0)), "cat");
  EXPECT_EQ(encoded.Decode(0, encoded.data.Get(1, 0)), "dog");
  EXPECT_EQ(encoded.Decode(0, 99.0), "");   // out of range
  EXPECT_EQ(encoded.Decode(5, 0.0), "");    // not categorical
}

TEST(EncodingTest, MixedNumericLooking) {
  // A column with one non-numeric value is entirely categorical.
  const Result<EncodedDataset> r =
      ReadCsvEncodedString("v\n1\n2\nx\n1\n");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().categorical.size(), 1u);
  // Sorted distinct: "1"=0, "2"=1, "x"=2.
  EXPECT_DOUBLE_EQ(r.value().data.Get(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(r.value().data.Get(2, 0), 2.0);
}

TEST(EncodingTest, MissingStaysMissingInBothKinds) {
  const Result<EncodedDataset> r =
      ReadCsvEncodedString("cat,num\nred,?\n?,2\nblue,3\n");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().data.IsMissing(0, 1));
  EXPECT_TRUE(r.value().data.IsMissing(1, 0));
  EXPECT_DOUBLE_EQ(r.value().data.Get(2, 1), 3.0);
  // "?" is not a category value.
  EXPECT_EQ(r.value().categorical[0].values,
            (std::vector<std::string>{"blue", "red"}));
}

TEST(EncodingTest, LabelColumnExtracted) {
  CsvReadOptions opts;
  opts.label_column = 1;
  const Result<EncodedDataset> r =
      ReadCsvEncodedString("kind,class,x\na,7,1\nb,8,2\n", opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const EncodedDataset& encoded = r.value();
  EXPECT_EQ(encoded.data.num_cols(), 2u);
  EXPECT_EQ(encoded.data.Label(0), 7);
  // Mapping indices refer to the label-free dataset.
  ASSERT_EQ(encoded.categorical.size(), 1u);
  EXPECT_EQ(encoded.categorical[0].column, 0u);
  EXPECT_EQ(encoded.data.ColumnName(1), "x");
}

TEST(EncodingTest, NonIntegerLabelFails) {
  CsvReadOptions opts;
  opts.label_column = 0;
  const Result<EncodedDataset> r =
      ReadCsvEncodedString("class,x\nsick,1\n", opts);
  EXPECT_FALSE(r.ok());
}

TEST(EncodingTest, LabelErrorsNameTheLine) {
  CsvReadOptions opts;
  opts.label_column = 0;
  const Result<EncodedDataset> bad =
      ReadCsvEncodedString("class,x\n1,a\nsick,b\n", opts);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().message(), "csv: line 3: bad label 'sick'");
  for (const std::string label : {"4294967297", "-4294967295"}) {
    const Result<EncodedDataset> r =
        ReadCsvEncodedString("class,x\n" + label + ",a\n", opts);
    ASSERT_FALSE(r.ok()) << label;
    EXPECT_EQ(r.status().code(), StatusCode::kParseError);
    EXPECT_EQ(r.status().message(),
              "csv: line 2: label '" + label + "' out of range");
  }
}

TEST(EncodingTest, FirstErrorInLineOrderWins) {
  // A bad label on line 2 and a ragged row on line 3: line 2 is reported.
  CsvReadOptions opts;
  opts.label_column = 1;
  const Result<EncodedDataset> r =
      ReadCsvEncodedString("x,class\nred,oops\nblue\n", opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(), "csv: line 2: bad label 'oops'");
}

TEST(EncodingTest, DirectoryIsAnIoError) {
  const Result<EncodedDataset> r = ReadCsvEncoded(::testing::TempDir());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(EncodingTest, CategoricalColumnsAcrossManyChunks) {
  // Column 0 is categorical throughout, column 1 numeric with missing
  // cells, and column 2 numeric until one word in the last rows.
  static const char* const kColors[] = {"red", "green", "blue", "teal",
                                        "?",   "ochre", " red "};
  Rng rng(7);
  std::string text = "color,v,w\n";
  std::vector<std::string> colors;
  std::vector<double> v;
  while (text.size() < 3 * kCsvChunkBytes) {
    const std::string color = kColors[rng.UniformIndex(7)];
    const bool v_missing = rng.Bernoulli(0.05);
    const double value = static_cast<double>(rng.UniformInt(-999, 999)) / 8;
    text += color + "," + (v_missing ? "NA" : StrFormat("%.17g", value)) +
            "," + std::to_string(colors.size() % 5) + "\n";
    colors.push_back(std::string(Trim(color)));
    v.push_back(v_missing ? std::nan("") : value);
  }
  text += "red,1,five\n";
  colors.push_back("red");
  v.push_back(1.0);

  const Result<EncodedDataset> r = ReadCsvEncodedString(text);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const EncodedDataset& encoded = r.value();
  const Dataset& data = encoded.data;
  ASSERT_EQ(data.num_rows(), colors.size());
  ASSERT_EQ(encoded.categorical.size(), 2u);
  EXPECT_EQ(encoded.categorical[0].column, 0u);
  EXPECT_EQ(encoded.categorical[0].values,
            (std::vector<std::string>{"blue", "green", "ochre", "red",
                                      "teal"}));
  EXPECT_EQ(encoded.categorical[1].column, 2u);
  EXPECT_EQ(encoded.categorical[1].values,
            (std::vector<std::string>{"0", "1", "2", "3", "4", "five"}));
  for (size_t row = 0; row < colors.size(); ++row) {
    if (colors[row] == "?") {
      EXPECT_TRUE(data.IsMissing(row, 0)) << row;
    } else {
      EXPECT_EQ(encoded.Decode(0, data.Get(row, 0)), colors[row]) << row;
    }
    if (std::isnan(v[row])) {
      EXPECT_TRUE(data.IsMissing(row, 1)) << row;
    } else {
      EXPECT_EQ(data.Get(row, 1), v[row]) << row;
    }
    const std::string w =
        row + 1 == colors.size() ? "five" : std::to_string(row % 5);
    EXPECT_EQ(encoded.Decode(2, data.Get(row, 2)), w) << row;
  }
}

TEST(EncodingTest, RaggedRowsFail) {
  const Result<EncodedDataset> r = ReadCsvEncodedString("a,b\n1,2\n3\n");
  EXPECT_FALSE(r.ok());
}

TEST(EncodingTest, EmbeddedNulFailsInsteadOfBecomingACategory) {
  // A NUL byte means binary input; the categorical fallback must reject it
  // with line/column context rather than ordinal-encoding the garbage.
  const Result<EncodedDataset> r =
      ReadCsvEncodedString(std::string("a,b\nred,2\nblu\x00 e,4\n", 18));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_NE(r.status().message().find("line 3"), std::string::npos)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("column 1"), std::string::npos)
      << r.status().ToString();
}

TEST(EncodingTest, OversizedFieldFailsWithContext) {
  CsvReadOptions opts;
  opts.max_field_bytes = 8;
  const Result<EncodedDataset> r =
      ReadCsvEncodedString("a,b\nred," + std::string(9, 'x') + "\n", opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("column 2"), std::string::npos)
      << r.status().ToString();
}

TEST(EncodingTest, MissingFileFails) {
  EXPECT_FALSE(ReadCsvEncoded("/no/such/file.csv").ok());
}

TEST(EncodingTest, NoHeaderMode) {
  CsvReadOptions opts;
  opts.has_header = false;
  const Result<EncodedDataset> r = ReadCsvEncodedString("x,1\ny,2\n", opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().data.num_rows(), 2u);
  EXPECT_EQ(r.value().data.ColumnName(0), "c0");
  ASSERT_EQ(r.value().categorical.size(), 1u);
}

TEST(EncodingTest, StopTokenFailpointAbortsEncodedRead) {
  std::string text = "cat,v\n";
  for (int i = 0; i < 5000; ++i) text += "x,1\n";
  StopToken token;
  token.ArmFailpoint(2);
  CsvReadOptions opts;
  opts.stop = &token;
  const Result<EncodedDataset> r = ReadCsvEncodedString(text, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(token.cause(), StopCause::kFailpoint);
}

TEST(EncodingTest, UnfiredStopTokenEncodesNormally) {
  StopToken token;
  CsvReadOptions opts;
  opts.stop = &token;
  const Result<EncodedDataset> r = ReadCsvEncodedString("cat,v\nx,1\ny,2\n", opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().data.num_rows(), 2u);
  EXPECT_FALSE(token.stop_requested());
}

}  // namespace
}  // namespace hido
