#include "eval/metrics.h"

#include <algorithm>
#include <set>

#include "common/macros.h"

namespace hido {

RareClassStats EvaluateRareClasses(const std::vector<size_t>& flagged_rows,
                                   const std::vector<int32_t>& labels,
                                   const std::vector<int32_t>& rare_classes) {
  const std::set<int32_t> rare(rare_classes.begin(), rare_classes.end());
  const std::set<size_t> flagged(flagged_rows.begin(), flagged_rows.end());

  RareClassStats stats;
  stats.flagged = flagged.size();
  size_t total_rare = 0;
  for (int32_t label : labels) {
    total_rare += rare.contains(label) ? 1 : 0;
  }
  for (size_t row : flagged) {
    HIDO_CHECK(row < labels.size());
    stats.rare_flagged += rare.contains(labels[row]) ? 1 : 0;
  }
  if (stats.flagged > 0) {
    stats.precision = static_cast<double>(stats.rare_flagged) /
                      static_cast<double>(stats.flagged);
  }
  if (total_rare > 0) {
    stats.recall = static_cast<double>(stats.rare_flagged) /
                   static_cast<double>(total_rare);
  }
  const double base_rate = labels.empty()
                               ? 0.0
                               : static_cast<double>(total_rare) /
                                     static_cast<double>(labels.size());
  if (base_rate > 0.0) stats.lift = stats.precision / base_rate;
  return stats;
}

namespace {

size_t IntersectionSize(const std::vector<size_t>& a,
                        const std::vector<size_t>& b) {
  const std::set<size_t> sa(a.begin(), a.end());
  size_t hits = 0;
  std::set<size_t> seen;
  for (size_t row : b) {
    if (sa.contains(row) && seen.insert(row).second) ++hits;
  }
  return hits;
}

}  // namespace

double RecallOfPlanted(const std::vector<size_t>& flagged_rows,
                       const std::vector<size_t>& planted_rows) {
  const std::set<size_t> planted(planted_rows.begin(), planted_rows.end());
  if (planted.empty()) return 0.0;
  return static_cast<double>(IntersectionSize(flagged_rows, planted_rows)) /
         static_cast<double>(planted.size());
}

double PrecisionOfPlanted(const std::vector<size_t>& flagged_rows,
                          const std::vector<size_t>& planted_rows) {
  const std::set<size_t> flagged(flagged_rows.begin(), flagged_rows.end());
  if (flagged.empty()) return 0.0;
  return static_cast<double>(IntersectionSize(flagged_rows, planted_rows)) /
         static_cast<double>(flagged.size());
}

}  // namespace hido
