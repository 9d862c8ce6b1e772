#ifndef HIDO_EVAL_METRICS_H_
#define HIDO_EVAL_METRICS_H_

// Evaluation metrics for the paper's experiments: rare-class enrichment
// (the §3.1 arrhythmia protocol), recall of planted anomalies, and overlap
// between detector outputs.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hido {

/// Outcome of the rare-class protocol: of the rows an algorithm flagged,
/// how many carry a rare class label?
struct RareClassStats {
  size_t flagged = 0;       ///< rows the detector reported
  size_t rare_flagged = 0;  ///< of those, rows with a rare class
  double precision = 0.0;   ///< rare_flagged / flagged (0 when flagged == 0)
  /// Fraction of all rare rows that were flagged.
  double recall = 0.0;
  /// precision / base-rate of rare rows: >1 means rare classes are
  /// over-represented among the flagged rows, the paper's success signal.
  double lift = 0.0;
};

/// Computes the rare-class protocol for `flagged_rows` against per-row
/// labels and the list of rare class codes.
RareClassStats EvaluateRareClasses(const std::vector<size_t>& flagged_rows,
                                   const std::vector<int32_t>& labels,
                                   const std::vector<int32_t>& rare_classes);

/// |flagged ∩ truth| / |truth| (0 when truth is empty). Duplicates in the
/// inputs are ignored.
double RecallOfPlanted(const std::vector<size_t>& flagged_rows,
                       const std::vector<size_t>& planted_rows);

/// |flagged ∩ truth| / |flagged| (0 when flagged is empty).
double PrecisionOfPlanted(const std::vector<size_t>& flagged_rows,
                          const std::vector<size_t>& planted_rows);

}  // namespace hido

#endif  // HIDO_EVAL_METRICS_H_
