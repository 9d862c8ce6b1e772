#include "data/generators/uci_like.h"

#include <algorithm>

namespace hido {

const std::vector<UciLikePreset>& Table1Presets() {
  static const std::vector<UciLikePreset>* presets =
      new std::vector<UciLikePreset>{  // hido-lint: allow(no-naked-new)
          {"breast_cancer", 699, 14, true},
          {"ionosphere", 351, 34, true},
          {"segmentation", 2310, 19, true},
          {"musk", 6598, 160, false},
          {"machine", 209, 8, true},
      };
  return *presets;
}

GeneratedDataset GenerateUciLike(const UciLikePreset& preset, uint64_t seed) {
  SubspaceOutlierConfig config;
  config.num_points = preset.num_rows;
  config.num_dims = preset.num_dims;
  // Structure parameters scaled to the dataset shape: roughly half of the
  // attributes participate in correlated pairs, so joint structure exists
  // on many dimension subsets and low-dimensional cubes differ strongly
  // from uniform.
  config.num_groups = std::max<size_t>(2, preset.num_dims / 4);
  config.group_dims = 2;
  config.modes_per_group = 5;
  config.mode_sigma = 0.02;
  config.num_outliers = std::max<size_t>(3, preset.num_rows / 100);
  config.outlier_subspace_dims = 2;
  config.seed = seed;
  return GenerateSubspaceOutliers(config);
}

}  // namespace hido
