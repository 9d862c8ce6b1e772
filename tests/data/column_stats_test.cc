#include "data/column_stats.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

namespace hido {
namespace {

TEST(ColumnStatsTest, BasicColumn) {
  const Dataset ds = Dataset::FromRows({{1.0}, {2.0}, {3.0}, {4.0}});
  const ColumnStats s = ComputeColumnStats(ds, 0);
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.missing, 0u);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_NEAR(s.median, 2.5, 1e-12);
  EXPECT_EQ(s.distinct, 4u);
}

TEST(ColumnStatsTest, MissingValuesExcluded) {
  Dataset ds(1);
  ds.AppendRow({1.0});
  ds.AppendRow({std::numeric_limits<double>::quiet_NaN()});
  ds.AppendRow({3.0});
  const ColumnStats s = ComputeColumnStats(ds, 0);
  EXPECT_EQ(s.count, 2u);
  EXPECT_EQ(s.missing, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
}

TEST(ColumnStatsTest, DistinctCountsTies) {
  const Dataset ds = Dataset::FromRows({{5.0}, {5.0}, {7.0}});
  EXPECT_EQ(ComputeColumnStats(ds, 0).distinct, 2u);
}

TEST(DescribeDatasetTest, MentionsShapeAndColumns) {
  Dataset ds = Dataset::FromRows({{1.0, 2.0}}, {"alpha", "beta"});
  const std::string desc = DescribeDataset(ds);
  EXPECT_NE(desc.find("1 rows x 2 cols"), std::string::npos);
  EXPECT_NE(desc.find("alpha"), std::string::npos);
  EXPECT_NE(desc.find("beta"), std::string::npos);
}

TEST(DescribeDatasetTest, TruncatesWideDatasets) {
  Dataset ds(30);
  ds.AppendRow(std::vector<double>(30, 1.0));
  const std::string desc = DescribeDataset(ds, 4);
  EXPECT_NE(desc.find("26 more columns"), std::string::npos);
}

}  // namespace
}  // namespace hido
