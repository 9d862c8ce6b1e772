#ifndef HIDO_DATA_GENERATORS_UCI_LIKE_H_
#define HIDO_DATA_GENERATORS_UCI_LIKE_H_

// Stand-ins for the five UCI datasets of Table 1.
//
// The paper's Table 1 measures search *time* and solution *quality* (mean
// sparsity coefficient of the best 20 cubes) on breast-cancer, ionosphere,
// segmentation, musk, and machine. Neither metric depends on the datasets'
// semantics — only on their (N, d) shape and on the data having non-uniform
// joint structure. Each preset therefore wraps GenerateSubspaceOutliers with
// the corresponding (N, d) and structure parameters scaled to d. Real UCI
// CSV files can be loaded with hido::ReadCsv and substituted 1:1.

#include <string>
#include <vector>

#include "data/generators/synthetic.h"

namespace hido {

/// Shape and structure of one Table 1 dataset stand-in.
struct UciLikePreset {
  std::string name;       ///< dataset name as printed in Table 1
  size_t num_rows = 0;    ///< rows to generate
  size_t num_dims = 0;    ///< the figure in parentheses in Table 1
  /// True for the datasets where the paper could not run brute force
  /// ("musk": 160 dimensions, marked "-" in Table 1).
  bool brute_force_feasible = true;
};

/// The five Table 1 presets, in the paper's row order:
/// breast_cancer(14), ionosphere(34), segmentation(19), musk(160),
/// machine(8).
const std::vector<UciLikePreset>& Table1Presets();

/// Instantiates a preset as a concrete dataset (with planted ground truth).
GeneratedDataset GenerateUciLike(const UciLikePreset& preset, uint64_t seed);

}  // namespace hido

#endif  // HIDO_DATA_GENERATORS_UCI_LIKE_H_
