#include "data/csv.h"

#include <sys/stat.h>

#include <cfloat>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/run_control.h"
#include "common/status.h"
#include "common/string_util.h"

namespace hido {
namespace {

TEST(CsvReadTest, BasicWithHeader) {
  const Result<Dataset> r = ReadCsvString("a,b\n1,2\n3,4\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Dataset& ds = r.value();
  EXPECT_EQ(ds.num_rows(), 2u);
  EXPECT_EQ(ds.num_cols(), 2u);
  EXPECT_EQ(ds.ColumnName(0), "a");
  EXPECT_EQ(ds.Get(1, 1), 4.0);
}

TEST(CsvReadTest, NoHeader) {
  CsvReadOptions opts;
  opts.has_header = false;
  const Result<Dataset> r = ReadCsvString("1,2\n3,4\n", opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().num_rows(), 2u);
}

TEST(CsvReadTest, MissingTokens) {
  const Result<Dataset> r = ReadCsvString("a,b\n1,?\n,2\n");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().IsMissing(0, 1));
  EXPECT_TRUE(r.value().IsMissing(1, 0));
  EXPECT_EQ(r.value().Get(1, 1), 2.0);
}

TEST(CsvReadTest, LabelColumnExtracted) {
  CsvReadOptions opts;
  opts.label_column = 1;
  const Result<Dataset> r = ReadCsvString("x,class,y\n1,7,2\n3,8,4\n", opts);
  ASSERT_TRUE(r.ok());
  const Dataset& ds = r.value();
  EXPECT_EQ(ds.num_cols(), 2u);
  EXPECT_EQ(ds.ColumnName(0), "x");
  EXPECT_EQ(ds.ColumnName(1), "y");
  ASSERT_TRUE(ds.has_labels());
  EXPECT_EQ(ds.Label(0), 7);
  EXPECT_EQ(ds.Label(1), 8);
  EXPECT_EQ(ds.Get(1, 1), 4.0);
}

TEST(CsvReadTest, CrlfAndTrailingNewlineTolerated) {
  const Result<Dataset> r = ReadCsvString("a\r\n1\r\n2\r\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().num_rows(), 2u);
}

TEST(CsvReadTest, BlankLinesSkipped) {
  const Result<Dataset> r = ReadCsvString("a\n1\n\n2\n\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().num_rows(), 2u);
}

TEST(CsvReadTest, CustomDelimiter) {
  CsvReadOptions opts;
  opts.delimiter = ';';
  const Result<Dataset> r = ReadCsvString("a;b\n1;2\n", opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().Get(0, 1), 2.0);
}

TEST(CsvReadTest, RaggedRowFails) {
  const Result<Dataset> r = ReadCsvString("a,b\n1,2\n3\n");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(CsvReadTest, NonNumericFieldFails) {
  const Result<Dataset> r = ReadCsvString("a\nhello\n");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(CsvReadTest, BadLabelFails) {
  CsvReadOptions opts;
  opts.label_column = 0;
  const Result<Dataset> r = ReadCsvString("class,x\nabc,1\n", opts);
  EXPECT_FALSE(r.ok());
}

TEST(CsvReadTest, LabelOutsideInt32Fails) {
  CsvReadOptions opts;
  opts.label_column = 1;
  for (const std::string label : {"4294967297", "-4294967295", "2147483648"}) {
    const Result<Dataset> r =
        ReadCsvString("x,class\n1,0\n2," + label + "\n", opts);
    ASSERT_FALSE(r.ok()) << label;
    EXPECT_EQ(r.status().code(), StatusCode::kParseError);
    EXPECT_EQ(r.status().message(),
              "csv: line 3: label '" + label + "' out of range");
  }
  const Result<Dataset> edges =
      ReadCsvString("x,class\n1,2147483647\n2,-2147483648\n", opts);
  ASSERT_TRUE(edges.ok()) << edges.status().ToString();
  EXPECT_EQ(edges.value().Label(0), std::numeric_limits<int32_t>::max());
  EXPECT_EQ(edges.value().Label(1), std::numeric_limits<int32_t>::min());
}

TEST(CsvReadTest, LabelColumnOutOfRangeFails) {
  CsvReadOptions opts;
  opts.label_column = 5;
  const Result<Dataset> r = ReadCsvString("a,b\n1,2\n", opts);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvReadTest, EmbeddedNulFailsWithLineAndColumn) {
  const Result<Dataset> r =
      ReadCsvString(std::string("a,b\n1,2\n3,4\x00 5\n", 15));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_NE(r.status().message().find("line 3"), std::string::npos)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("column 2"), std::string::npos)
      << r.status().ToString();
}

TEST(CsvReadTest, EmbeddedNulInHeaderFails) {
  const Result<Dataset> r = ReadCsvString(std::string("a,b\x00 c\n1,2\n", 11));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_NE(r.status().message().find("line 1"), std::string::npos)
      << r.status().ToString();
}

TEST(CsvReadTest, OversizedFieldFailsWithContext) {
  CsvReadOptions opts;
  opts.max_field_bytes = 16;
  const std::string huge(17, '7');
  const Result<Dataset> r = ReadCsvString("a,b\n1," + huge + "\n", opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("column 2"), std::string::npos)
      << r.status().ToString();
  // At the cap exactly is fine.
  const std::string at_cap(16, '7');
  EXPECT_TRUE(ReadCsvString("a,b\n1," + at_cap + "\n", opts).ok());
}

TEST(CsvReadTest, TooManyColumnsFails) {
  CsvReadOptions opts;
  opts.max_columns = 3;
  EXPECT_TRUE(ReadCsvString("a,b,c\n1,2,3\n", opts).ok());
  const Result<Dataset> r = ReadCsvString("a,b,c,d\n1,2,3,4\n", opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_NE(r.status().message().find("line 1"), std::string::npos)
      << r.status().ToString();
}

TEST(CsvReadTest, SizeCapsCanBeDisabled) {
  CsvReadOptions opts;
  opts.max_field_bytes = 0;
  opts.max_columns = 0;
  const std::string huge = "0." + std::string(10000, '1');
  EXPECT_TRUE(ReadCsvString("a\n" + huge + "\n", opts).ok());
}

TEST(CsvReadTest, RaggedRowErrorNamesTheLine) {
  const Result<Dataset> r = ReadCsvString("a,b\n1,2\n3\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 3"), std::string::npos)
      << r.status().ToString();
}

TEST(CsvReadTest, GarbageFieldErrorNamesLineAndColumn) {
  const Result<Dataset> r = ReadCsvString("a,b\n1,2\n3,@!garbage\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_NE(r.status().message().find("line 3"), std::string::npos)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("column 2"), std::string::npos)
      << r.status().ToString();
}

TEST(CsvReadTest, MissingFileFails) {
  const Result<Dataset> r = ReadCsv("/nonexistent/path/data.csv");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(CsvReadTest, DirectoryIsAnIoError) {
  const Result<Dataset> r = ReadCsv(::testing::TempDir());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(CsvReadTest, ReadsAFifoToItsEnd) {
  // Longer than one read and than one parse chunk.
  std::string text = "a,b,label\n";
  for (int i = 0; text.size() < 2 * kCsvChunkBytes; ++i) {
    text += StrFormat("%d.25,%d,%d\n", i, -i, i % 2);
  }
  const std::string path = ::testing::TempDir() + "/hido_csv_test.fifo";
  std::remove(path.c_str());
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
  std::thread writer([&] {
    std::ofstream out(path, std::ios::binary);
    out << text;
  });
  CsvReadOptions opts;
  opts.label_column = 2;
  const Result<Dataset> r = ReadCsv(path, opts);
  writer.join();
  std::remove(path.c_str());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Result<Dataset> want = ReadCsvString(text, opts);
  ASSERT_TRUE(want.ok());
  ASSERT_EQ(r.value().num_rows(), want.value().num_rows());
  for (size_t c = 0; c < 2; ++c) {
    EXPECT_EQ(r.value().Column(c), want.value().Column(c));
  }
  EXPECT_EQ(r.value().labels(), want.value().labels());
}

TEST(CsvRoundTripTest, WriteThenReadPreservesEverything) {
  Dataset ds = Dataset::FromRows({{1.5, 2.0}, {3.25, 4.0}}, {"p", "q"});
  ds.SetMissing(1, 0);
  ds.SetLabels({3, 9});

  CsvReadOptions ropts;
  ropts.label_column = 2;  // label appended as last column
  const Result<Dataset> r = ReadCsvString(WriteCsvString(ds), ropts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Dataset& back = r.value();
  EXPECT_EQ(back.num_rows(), 2u);
  EXPECT_EQ(back.num_cols(), 2u);
  EXPECT_EQ(back.ColumnName(0), "p");
  EXPECT_DOUBLE_EQ(back.Get(0, 0), 1.5);
  EXPECT_TRUE(back.IsMissing(1, 0));
  EXPECT_EQ(back.Label(0), 3);
  EXPECT_EQ(back.Label(1), 9);
}

TEST(CsvRoundTripTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/hido_csv_test.csv";
  const Dataset ds = Dataset::FromRows({{1.0}, {2.0}}, {"v"});
  ASSERT_TRUE(WriteCsv(ds, path).ok());
  const Result<Dataset> r = ReadCsv(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().num_rows(), 2u);
  std::remove(path.c_str());
}

TEST(CsvReadTest, StopTokenFailpointAbortsRead) {
  // Loading is all-or-nothing: a stop mid-read returns a Status, never a
  // truncated Dataset.
  std::string text = "a,b\n";
  for (int i = 0; i < 5000; ++i) text += "1,2\n";
  StopToken token;
  token.ArmFailpoint(2);  // entry poll passes; the first stride poll fires
  CsvReadOptions opts;
  opts.stop = &token;
  const Result<Dataset> r = ReadCsvString(text, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(token.cause(), StopCause::kFailpoint);
}

TEST(CsvReadTest, PreCancelledTokenAbortsImmediately) {
  StopToken token;
  token.RequestCancel();
  CsvReadOptions opts;
  opts.stop = &token;
  const Result<Dataset> r = ReadCsvString("a,b\n1,2\n", opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
}

TEST(CsvReadTest, UnfiredStopTokenReadsNormally) {
  StopToken token;
  CsvReadOptions opts;
  opts.stop = &token;
  const Result<Dataset> r = ReadCsvString("a,b\n1,2\n3,4\n", opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().num_rows(), 2u);
  EXPECT_FALSE(token.stop_requested());
}

TEST(CsvWriteTest, NumbersAreWrittenAsPrintfG17) {
  const Dataset ds = Dataset::FromRows(
      {{0.0}, {-0.0}, {4.9406564584124654e-324}, {-4.9406564584124654e-324},
       {2.2250738585072009e-308}, {2.2250738585072014e-308}, {DBL_MAX},
       {-DBL_MAX}, {0.1}, {1e21}, {1e-7}, {123456789012345678.0}, {1e16},
       {1e17}, {12345.678}, {-1.5}},
      {"v"});
  EXPECT_EQ(WriteCsvString(ds),
            "v\n0\n-0\n4.9406564584124654e-324\n-4.9406564584124654e-324\n"
            "2.2250738585072009e-308\n2.2250738585072014e-308\n"
            "1.7976931348623157e+308\n-1.7976931348623157e+308\n"
            "0.10000000000000001\n1e+21\n9.9999999999999995e-08\n"
            "1.2345678901234568e+17\n10000000000000000\n1e+17\n"
            "12345.678\n-1.5\n");

  Dataset labeled = Dataset::FromRows({{1.0}, {2.0}, {3.0}});
  labeled.SetLabels({std::numeric_limits<int32_t>::min(), 0,
                     std::numeric_limits<int32_t>::max()});
  EXPECT_EQ(WriteCsvString(labeled),
            "c0,label\n1,-2147483648\n2,0\n3,2147483647\n");
}

}  // namespace
}  // namespace hido
