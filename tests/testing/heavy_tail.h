#ifndef HIDO_TESTS_TESTING_HEAVY_TAIL_H_
#define HIDO_TESTS_TESTING_HEAVY_TAIL_H_

// A heavy-tailed copy of a dataset with values in (0, 1): each value x
// becomes 1 / (1.001 - min(x, 0.9999)). Under equi-width binning nearly
// every row lands in the first range and most ranges hold a handful of
// rows, the sparsest ranges a grid over real-looking data gets.

#include <algorithm>
#include <cstddef>

#include "data/dataset.h"

namespace hido {

/// `data` with every present value x mapped to 1 / (1.001 - min(x, 0.9999)).
inline Dataset HeavyTailed(const Dataset& data) {
  Dataset out = data;
  for (size_t col = 0; col < data.num_cols(); ++col) {
    for (size_t row = 0; row < data.num_rows(); ++row) {
      if (data.IsMissing(row, col)) continue;
      out.Set(row, col, 1.0 / (1.001 - std::min(data.Get(row, col), 0.9999)));
    }
  }
  return out;
}

}  // namespace hido

#endif  // HIDO_TESTS_TESTING_HEAVY_TAIL_H_
