#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>

#include <gtest/gtest.h>

#include "common/stats.h"
#include "data/column_stats.h"
#include "data/generators/arrhythmia_like.h"
#include "data/generators/housing_like.h"
#include "data/generators/synthetic.h"
#include "data/generators/uci_like.h"

namespace hido {
namespace {

TEST(SubspaceOutlierGeneratorTest, ShapeAndGroundTruth) {
  SubspaceOutlierConfig config;
  config.num_points = 500;
  config.num_dims = 12;
  config.num_outliers = 7;
  config.seed = 1;
  const GeneratedDataset g = GenerateSubspaceOutliers(config);
  EXPECT_EQ(g.data.num_rows(), 500u);
  EXPECT_EQ(g.data.num_cols(), 12u);
  EXPECT_EQ(g.outlier_rows.size(), 7u);
  EXPECT_EQ(g.outlier_dims.size(), 7u);
  EXPECT_EQ(g.groups.size(), 4u);  // default num_groups
  for (size_t row : g.outlier_rows) {
    EXPECT_LT(row, 500u);
  }
  std::set<size_t> grouped_dims;
  for (const auto& group : g.groups) {
    EXPECT_EQ(group.size(), 2u);  // default group_dims
    for (size_t d : group) {
      EXPECT_LT(d, 12u);
      EXPECT_TRUE(grouped_dims.insert(d).second);  // groups disjoint
    }
  }
  for (const auto& dims : g.outlier_dims) {
    EXPECT_EQ(dims.size(), config.outlier_subspace_dims);
    EXPECT_TRUE(std::is_sorted(dims.begin(), dims.end()));
    // Each anomaly's deviating dims lie inside a single correlated group.
    bool inside_one_group = false;
    for (const auto& group : g.groups) {
      inside_one_group |= std::includes(group.begin(), group.end(),
                                        dims.begin(), dims.end());
    }
    EXPECT_TRUE(inside_one_group);
  }
}

TEST(SubspaceOutlierGeneratorTest, PlantedCellIsUnique) {
  // The defining property: with phi = modes_per_group equi-depth ranges,
  // each planted anomaly is the ONLY point in its deviating 2-d cell.
  SubspaceOutlierConfig config;
  config.num_points = 600;
  config.num_dims = 16;
  config.num_groups = 5;
  config.num_outliers = 5;
  config.seed = 77;
  const GeneratedDataset g = GenerateSubspaceOutliers(config);

  // Discretize each deviating dim by the empirical quintiles.
  auto cell_of = [&](size_t dim, double value) {
    std::vector<double> column = g.data.Column(dim);
    std::sort(column.begin(), column.end());
    size_t cell = 0;
    for (size_t q = 1; q < 5; ++q) {
      if (value > column[column.size() * q / 5]) cell = q;
    }
    return cell;
  };
  for (size_t o = 0; o < g.outlier_rows.size(); ++o) {
    const size_t row = g.outlier_rows[o];
    const size_t d0 = g.outlier_dims[o][0];
    const size_t d1 = g.outlier_dims[o][1];
    const size_t c0 = cell_of(d0, g.data.Get(row, d0));
    const size_t c1 = cell_of(d1, g.data.Get(row, d1));
    size_t occupants = 0;
    for (size_t r = 0; r < g.data.num_rows(); ++r) {
      if (cell_of(d0, g.data.Get(r, d0)) == c0 &&
          cell_of(d1, g.data.Get(r, d1)) == c1) {
        ++occupants;
      }
    }
    EXPECT_LE(occupants, 2u) << "outlier " << o;  // itself (+rare twin)
  }
}

TEST(SubspaceOutlierGeneratorTest, DeterministicPerSeed) {
  SubspaceOutlierConfig config;
  config.num_points = 100;
  config.num_dims = 10;
  config.seed = 42;
  const GeneratedDataset a = GenerateSubspaceOutliers(config);
  const GeneratedDataset b = GenerateSubspaceOutliers(config);
  for (size_t r = 0; r < 100; ++r) {
    for (size_t c = 0; c < 10; ++c) {
      EXPECT_EQ(a.data.Get(r, c), b.data.Get(r, c));
    }
  }
  EXPECT_EQ(a.outlier_rows, b.outlier_rows);
}

TEST(SubspaceOutlierGeneratorTest, DifferentSeedsDiffer) {
  SubspaceOutlierConfig config;
  config.num_points = 50;
  config.num_dims = 10;
  config.seed = 1;
  const GeneratedDataset a = GenerateSubspaceOutliers(config);
  config.seed = 2;
  const GeneratedDataset b = GenerateSubspaceOutliers(config);
  bool any_diff = false;
  for (size_t r = 0; r < 50 && !any_diff; ++r) {
    for (size_t c = 0; c < 10 && !any_diff; ++c) {
      any_diff = a.data.Get(r, c) != b.data.Get(r, c);
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(SubspaceOutlierGeneratorTest, ValuesInUnitInterval) {
  SubspaceOutlierConfig config;
  config.num_points = 300;
  config.num_dims = 8;
  config.seed = 3;
  const GeneratedDataset g = GenerateSubspaceOutliers(config);
  for (size_t c = 0; c < g.data.num_cols(); ++c) {
    const ColumnStats s = ComputeColumnStats(g.data, c);
    EXPECT_GE(s.min, 0.0);
    EXPECT_LT(s.max, 1.0);
  }
}

TEST(SubspaceOutlierGeneratorTest, MissingFractionApplied) {
  SubspaceOutlierConfig config;
  config.num_points = 400;
  config.num_dims = 10;
  config.missing_fraction = 0.1;
  config.seed = 4;
  const GeneratedDataset g = GenerateSubspaceOutliers(config);
  size_t missing = 0;
  for (size_t c = 0; c < 10; ++c) {
    missing += 400 - g.data.PresentCount(c);
  }
  const double fraction = static_cast<double>(missing) / 4000.0;
  EXPECT_NEAR(fraction, 0.1, 0.03);
}

TEST(SubspaceOutlierGeneratorTest, InvalidConfigAborts) {
  SubspaceOutlierConfig config;
  config.num_points = 10;
  config.num_dims = 5;
  config.num_groups = 4;
  config.group_dims = 2;  // 8 > 5 dims
  EXPECT_DEATH(GenerateSubspaceOutliers(config), "groups need");
  config.num_groups = 1;
  config.outlier_subspace_dims = 3;  // > group_dims
  EXPECT_DEATH(GenerateSubspaceOutliers(config), "outlier_subspace_dims");
}

TEST(UniformGeneratorTest, ShapeAndRange) {
  const Dataset ds = GenerateUniform(200, 5, 9);
  EXPECT_EQ(ds.num_rows(), 200u);
  EXPECT_EQ(ds.num_cols(), 5u);
  const ColumnStats s = ComputeColumnStats(ds, 0);
  EXPECT_GE(s.min, 0.0);
  EXPECT_LT(s.max, 1.0);
  EXPECT_NEAR(s.mean, 0.5, 0.1);
}

TEST(UciLikePresetsTest, Table1ShapesMatchPaper) {
  const auto& presets = Table1Presets();
  ASSERT_EQ(presets.size(), 5u);
  EXPECT_EQ(presets[0].name, "breast_cancer");
  EXPECT_EQ(presets[0].num_dims, 14u);
  EXPECT_EQ(presets[1].name, "ionosphere");
  EXPECT_EQ(presets[1].num_dims, 34u);
  EXPECT_EQ(presets[2].name, "segmentation");
  EXPECT_EQ(presets[2].num_dims, 19u);
  EXPECT_EQ(presets[3].name, "musk");
  EXPECT_EQ(presets[3].num_dims, 160u);
  EXPECT_FALSE(presets[3].brute_force_feasible);
  EXPECT_EQ(presets[4].name, "machine");
  EXPECT_EQ(presets[4].num_dims, 8u);
}

TEST(UciLikePresetsTest, GenerateMatchesPresetShape) {
  const UciLikePreset& preset = Table1Presets()[4];  // machine
  const GeneratedDataset g = GenerateUciLike(preset, 5);
  EXPECT_EQ(g.data.num_rows(), preset.num_rows);
  EXPECT_EQ(g.data.num_cols(), preset.num_dims);
  EXPECT_GT(g.outlier_rows.size(), 0u);
}

class UciPresetSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(UciPresetSweep, EveryPresetGeneratesItsShape) {
  const UciLikePreset& preset = Table1Presets()[GetParam()];
  const GeneratedDataset g = GenerateUciLike(preset, 99);
  EXPECT_EQ(g.data.num_rows(), preset.num_rows);
  EXPECT_EQ(g.data.num_cols(), preset.num_dims);
  EXPECT_FALSE(g.outlier_rows.empty());
  EXPECT_FALSE(g.groups.empty());
  // Ground-truth rows are valid and distinct.
  std::set<size_t> rows(g.outlier_rows.begin(), g.outlier_rows.end());
  EXPECT_EQ(rows.size(), g.outlier_rows.size());
  for (size_t row : rows) EXPECT_LT(row, preset.num_rows);
}

INSTANTIATE_TEST_SUITE_P(AllPresets, UciPresetSweep,
                         ::testing::Range<size_t>(0, 5),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return Table1Presets()[info.param].name;
                         });

TEST(ArrhythmiaLikeTest, ShapeAndClassDistribution) {
  const ArrhythmiaLikeDataset g = GenerateArrhythmiaLike();
  EXPECT_EQ(g.data.num_rows(), 452u);
  EXPECT_EQ(g.data.num_cols(), 279u);
  ASSERT_TRUE(g.data.has_labels());

  // Table 2: rare classes cover 14.6% of instances.
  const std::set<int32_t> rare(g.rare_classes.begin(), g.rare_classes.end());
  size_t rare_count = 0;
  for (size_t r = 0; r < g.data.num_rows(); ++r) {
    rare_count += rare.contains(g.data.Label(r)) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(rare_count) / 452.0, 0.146, 0.005);
  EXPECT_EQ(g.rare_rows.size(), rare_count);

  // All 13 classes present.
  std::set<int32_t> classes;
  for (size_t r = 0; r < g.data.num_rows(); ++r) {
    classes.insert(g.data.Label(r));
  }
  EXPECT_EQ(classes.size(), 13u);
}

TEST(ArrhythmiaLikeTest, RareRowsCarryRareLabels) {
  const ArrhythmiaLikeDataset g = GenerateArrhythmiaLike();
  const std::set<int32_t> rare(g.rare_classes.begin(), g.rare_classes.end());
  for (size_t row : g.rare_rows) {
    EXPECT_TRUE(rare.contains(g.data.Label(row)));
  }
}

TEST(ArrhythmiaLikeTest, RecordingErrorsOutOfScale) {
  const ArrhythmiaLikeDataset g = GenerateArrhythmiaLike();
  EXPECT_EQ(g.recording_error_rows.size(), 2u);
  for (size_t row : g.recording_error_rows) {
    // At least one coordinate far outside [0, 1].
    bool extreme = false;
    for (size_t c = 0; c < g.data.num_cols(); ++c) {
      const double v = g.data.Get(row, c);
      if (v > 2.0 || v < -2.0) extreme = true;
    }
    EXPECT_TRUE(extreme) << "row " << row;
  }
}

TEST(ArrhythmiaLikeTest, ScaledRowCountKeepsProportions) {
  ArrhythmiaLikeConfig config;
  config.num_rows = 904;  // 2x
  const ArrhythmiaLikeDataset g = GenerateArrhythmiaLike(config);
  EXPECT_EQ(g.data.num_rows(), 904u);
  EXPECT_NEAR(static_cast<double>(g.rare_rows.size()) / 904.0, 0.146, 0.01);
}

TEST(HousingLikeTest, ShapeAndNames) {
  const HousingLikeDataset g = GenerateHousingLike();
  EXPECT_EQ(g.data.num_rows(), 506u);
  EXPECT_EQ(g.data.num_cols(), 13u);
  EXPECT_NE(g.data.FindColumn("crime_rate"), g.data.num_cols());
  EXPECT_NE(g.data.FindColumn("median_price"), g.data.num_cols());
  ASSERT_EQ(g.contrarian_rows.size(), 3u);
  ASSERT_EQ(g.contrarian_cols.size(), 3u);
}

TEST(HousingLikeTest, BackgroundCorrelationsMatchNarrative) {
  const HousingLikeDataset g = GenerateHousingLike(123);
  const size_t crime = g.data.FindColumn("crime_rate");
  const size_t highway = g.data.FindColumn("highway_access");
  const size_t dist = g.data.FindColumn("dist_employment");
  const size_t nox = g.data.FindColumn("nox");
  const size_t age = g.data.FindColumn("age_pre1940");

  std::vector<double> log_crime;
  for (double v : g.data.Column(crime)) log_crime.push_back(std::log(v));
  // High crime <-> high highway accessibility.
  EXPECT_GT(PearsonCorrelation(log_crime, g.data.Column(highway)), 0.4);
  // The paper's narrative: high-crime localities are far from employment.
  EXPECT_GT(PearsonCorrelation(log_crime, g.data.Column(dist)), 0.4);
  // Old housing stock <-> NOx.
  EXPECT_GT(PearsonCorrelation(g.data.Column(age), g.data.Column(nox)), 0.4);
}

TEST(HousingLikeTest, ContrarianValuesMatchPaper) {
  const HousingLikeDataset g = GenerateHousingLike();
  const size_t crime = g.data.FindColumn("crime_rate");
  const size_t pt = g.data.FindColumn("pupil_teacher");
  const size_t dist = g.data.FindColumn("dist_employment");
  const size_t row = g.contrarian_rows[0];
  EXPECT_DOUBLE_EQ(g.data.Get(row, crime), 1.628);
  EXPECT_DOUBLE_EQ(g.data.Get(row, pt), 21.20);
  EXPECT_DOUBLE_EQ(g.data.Get(row, dist), 1.4394);
}

}  // namespace
}  // namespace hido
