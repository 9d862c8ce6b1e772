#include "data/dataset.h"

#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "data/csv.h"

namespace hido {
namespace {

const double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(DatasetTest, EmptyDataset) {
  Dataset ds(3);
  EXPECT_EQ(ds.num_rows(), 0u);
  EXPECT_EQ(ds.num_cols(), 3u);
  EXPECT_FALSE(ds.HasMissing());
  EXPECT_FALSE(ds.has_labels());
}

TEST(DatasetTest, AppendAndGet) {
  Dataset ds(2);
  ds.AppendRow({1.0, 2.0});
  ds.AppendRow({3.0, 4.0});
  EXPECT_EQ(ds.num_rows(), 2u);
  EXPECT_EQ(ds.Get(0, 0), 1.0);
  EXPECT_EQ(ds.Get(1, 1), 4.0);
  EXPECT_EQ(ds.Row(1), (std::vector<double>{3.0, 4.0}));
  EXPECT_EQ(ds.Column(0), (std::vector<double>{1.0, 3.0}));
}

TEST(DatasetTest, FromRows) {
  const Dataset ds = Dataset::FromRows({{1.0, 2.0}, {3.0, 4.0}}, {"a", "b"});
  EXPECT_EQ(ds.num_rows(), 2u);
  EXPECT_EQ(ds.num_cols(), 2u);
  EXPECT_EQ(ds.ColumnName(0), "a");
  EXPECT_EQ(ds.ColumnName(1), "b");
}

TEST(DatasetTest, NanInAppendRowBecomesMissing) {
  Dataset ds(2);
  ds.AppendRow({1.0, kNaN});
  EXPECT_FALSE(ds.IsMissing(0, 0));
  EXPECT_TRUE(ds.IsMissing(0, 1));
  EXPECT_TRUE(ds.HasMissing());
  EXPECT_EQ(ds.PresentCount(0), 1u);
  EXPECT_EQ(ds.PresentCount(1), 0u);
  EXPECT_EQ(ds.GetOr(0, 1, -5.0), -5.0);
}

TEST(DatasetTest, SetMissingAndSetClearEachOther) {
  Dataset ds(1);
  ds.AppendRow({7.0});
  ds.SetMissing(0, 0);
  EXPECT_TRUE(ds.IsMissing(0, 0));
  ds.Set(0, 0, 9.0);
  EXPECT_FALSE(ds.IsMissing(0, 0));
  EXPECT_EQ(ds.Get(0, 0), 9.0);
}

TEST(DatasetTest, MissingMaskOnlyOnAffectedColumns) {
  Dataset ds(3);
  ds.AppendRow({1.0, 2.0, 3.0});
  ds.AppendRow({4.0, kNaN, 6.0});
  EXPECT_EQ(ds.PresentCount(0), 2u);
  EXPECT_EQ(ds.PresentCount(1), 1u);
  EXPECT_EQ(ds.PresentCount(2), 2u);
  // Earlier rows of a late-missing column stay present.
  EXPECT_FALSE(ds.IsMissing(0, 1));
}

// A cell is missing exactly when it is NaN, whatever the NaN's sign or
// payload: FromColumns takes the columns as they are.
TEST(DatasetTest, FromColumnsMarksEveryNaNMissing) {
  const double quiet = std::numeric_limits<double>::quiet_NaN();
  const double payload = std::nan("7");
  const double negative = std::copysign(quiet, -1.0);
  ASSERT_TRUE(std::signbit(negative));
  // Column c is missing at row c.
  const Dataset ds = Dataset::FromColumns(
      3, {{quiet, 1.0, 2.0}, {3.0, payload, 4.0}, {5.0, 6.0, negative}});
  EXPECT_TRUE(ds.HasMissing());
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(ds.PresentCount(c), 2u) << "column " << c;
    for (size_t r = 0; r < 3; ++r) {
      EXPECT_EQ(ds.IsMissing(r, c), r == c) << r << "," << c;
      EXPECT_EQ(ds.GetOr(r, c, -1.0), r == c ? -1.0 : ds.Column(c)[r]);
    }
  }

  const std::string text = WriteCsvString(ds);
  EXPECT_EQ(text, "c0,c1,c2\n?,3,5\n1,?,6\n2,4,?\n");
  const Result<Dataset> back = ReadCsvString(text);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  for (size_t c = 0; c < 3; ++c) {
    for (size_t r = 0; r < 3; ++r) {
      EXPECT_EQ(back.value().IsMissing(r, c), r == c) << r << "," << c;
    }
  }
}

TEST(DatasetTest, DefaultColumnNames) {
  Dataset ds(2);
  EXPECT_EQ(ds.ColumnName(0), "c0");
  EXPECT_EQ(ds.ColumnName(1), "c1");
  ds.SetColumnName(1, "price");
  EXPECT_EQ(ds.ColumnName(1), "price");
  EXPECT_EQ(ds.FindColumn("price"), 1u);
  EXPECT_EQ(ds.FindColumn("ghost"), ds.num_cols());
}

// FindColumn answers from the names ColumnName gives, before any call to
// ColumnName, and an empty name reads as the default one.
TEST(DatasetTest, FindColumnSeesDefaultNames) {
  const Dataset unnamed(3);
  EXPECT_EQ(unnamed.FindColumn("c1"), 1u);
  EXPECT_EQ(unnamed.FindColumn(""), unnamed.num_cols());

  const Result<Dataset> read = ReadCsvString("a,,c\n1,2,3\n");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value().FindColumn("c1"), 1u);
  EXPECT_EQ(read.value().ColumnName(1), "c1");
  EXPECT_EQ(read.value().FindColumn("c"), 2u);
  EXPECT_EQ(WriteCsvString(read.value()), "a,c1,c\n1,2,3\n");
}

TEST(DatasetTest, Labels) {
  Dataset ds(1);
  ds.AppendRow({0.0});
  ds.AppendRow({1.0});
  ds.SetLabels({5, 9});
  ASSERT_TRUE(ds.has_labels());
  EXPECT_EQ(ds.Label(0), 5);
  EXPECT_EQ(ds.Label(1), 9);
}

TEST(DatasetTest, SelectRows) {
  Dataset ds = Dataset::FromRows({{1.0}, {2.0}, {3.0}});
  ds.SetLabels({10, 20, 30});
  const Dataset sub = ds.SelectRows({2, 0});
  EXPECT_EQ(sub.num_rows(), 2u);
  EXPECT_EQ(sub.Get(0, 0), 3.0);
  EXPECT_EQ(sub.Get(1, 0), 1.0);
  EXPECT_EQ(sub.Label(0), 30);
}

TEST(DatasetTest, SelectRowsCarriesMissing) {
  Dataset ds(2);
  ds.AppendRow({1.0, kNaN});
  ds.AppendRow({2.0, 5.0});
  const Dataset sub = ds.SelectRows({0});
  EXPECT_TRUE(sub.IsMissing(0, 1));
  EXPECT_FALSE(sub.IsMissing(0, 0));
}

TEST(DatasetDeathTest, RaggedRowAborts) {
  Dataset ds(2);
  EXPECT_DEATH(ds.AppendRow({1.0}), "width");
}

TEST(DatasetDeathTest, LabelSizeMismatchAborts) {
  Dataset ds(1);
  ds.AppendRow({1.0});
  EXPECT_DEATH(ds.SetLabels({1, 2}), "labels");
}

TEST(DatasetDeathTest, AppendAfterLabelsAborts) {
  Dataset ds(1);
  ds.AppendRow({1.0});
  ds.SetLabels({1});
  EXPECT_DEATH(ds.AppendRow({2.0}), "labels");
}

TEST(DatasetDeathTest, SetNonFiniteAborts) {
  Dataset ds(1);
  ds.AppendRow({1.0});
  EXPECT_DEATH(ds.Set(0, 0, kNaN), "SetMissing");
}

}  // namespace
}  // namespace hido
