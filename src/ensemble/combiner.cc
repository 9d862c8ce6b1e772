#include "ensemble/combiner.h"

#include <algorithm>
#include <numeric>

#include "common/macros.h"

namespace hido {
namespace ensemble {

namespace {

// Abnormality of one member score: negated sparsity (more negative
// sparsity = larger abnormality), 0 when the member does not cover the
// point at all.
double Abnormality(const PointScore& score) {
  if (score.covering_projections == 0) return 0.0;
  return -score.sparsity_score;
}

// Rank-aggregation combine: interleave the members' rankings breadth-first
// and score rows by first appearance — position p (0-based) among the
// rows any member actually covers maps to (n - p) / n, so scores fall in
// (0, 1] and uncovered-everywhere rows score 0.
void CombineBreadthFirst(
    const std::vector<std::vector<PointScore>>& member_scores,
    std::vector<EnsemblePointScore>* combined) {
  const size_t num_rows = combined->size();
  for (EnsemblePointScore& point : *combined) point.score = 0.0;
  std::vector<std::vector<size_t>> orders;
  orders.reserve(member_scores.size());
  for (const std::vector<PointScore>& scores : member_scores) {
    orders.push_back(RankRows(scores));
  }
  std::vector<char> taken(num_rows, 0);
  size_t position = 0;
  for (size_t depth = 0; depth < num_rows; ++depth) {
    for (size_t e = 0; e < member_scores.size(); ++e) {
      const size_t row = orders[e][depth];
      // RankRows sorts a member's uncovered tail last; those rows carry no
      // evidence from this member and must not be drawn into the ranking.
      if (member_scores[e][row].covering_projections == 0) continue;
      if (taken[row] != 0) continue;
      taken[row] = 1;
      (*combined)[row].score =
          static_cast<double>(num_rows - position) /
          static_cast<double>(num_rows);
      ++position;
    }
  }
}

}  // namespace

const char* CombinerKindToString(CombinerKind kind) {
  switch (kind) {
    case CombinerKind::kBreadthFirst: return "breadth-first";
    case CombinerKind::kCumulativeSum: return "cumsum";
    case CombinerKind::kMax: return "max";
    case CombinerKind::kMeanNormalized: return "mean";
  }
  HIDO_CHECK_MSG(false, "unreachable combiner kind");
  return "mean";
}

bool ParseCombinerKind(const std::string& name, CombinerKind* kind) {
  if (name == "breadth-first") {
    *kind = CombinerKind::kBreadthFirst;
  } else if (name == "cumsum") {
    *kind = CombinerKind::kCumulativeSum;
  } else if (name == "max") {
    *kind = CombinerKind::kMax;
  } else if (name == "mean") {
    *kind = CombinerKind::kMeanNormalized;
  } else {
    return false;
  }
  return true;
}

double MemberScoreScale(const std::vector<PointScore>& scores) {
  double scale = 0.0;
  for (const PointScore& score : scores) {
    scale = std::max(scale, Abnormality(score));
  }
  return scale > 0.0 ? scale : 1.0;
}

std::vector<EnsemblePointScore> CombineMemberScores(
    CombinerKind kind,
    const std::vector<std::vector<PointScore>>& member_scores,
    const std::vector<double>& scales) {
  HIDO_CHECK(member_scores.size() == scales.size());
  const size_t num_rows =
      member_scores.empty() ? 0 : member_scores.front().size();
  for (const std::vector<PointScore>& scores : member_scores) {
    HIDO_CHECK(scores.size() == num_rows);
  }

  std::vector<EnsemblePointScore> combined(num_rows);
  std::vector<PointScore> point(member_scores.size());
  for (size_t row = 0; row < num_rows; ++row) {
    for (size_t e = 0; e < member_scores.size(); ++e) {
      point[e] = member_scores[e][row];
    }
    combined[row] = CombinePoint(kind, point, scales);
    combined[row].row = row;
  }
  // A lone point degrades breadth-first to max; a population is ranked.
  if (kind == CombinerKind::kBreadthFirst) {
    CombineBreadthFirst(member_scores, &combined);
  }
  return combined;
}

EnsemblePointScore CombinePoint(CombinerKind kind,
                                const std::vector<PointScore>& member_scores,
                                const std::vector<double>& scales) {
  HIDO_CHECK(member_scores.size() == scales.size());
  EnsemblePointScore combined;
  combined.row = static_cast<size_t>(-1);
  double score = 0.0;
  for (size_t e = 0; e < member_scores.size(); ++e) {
    const double abnormality = Abnormality(member_scores[e]);
    combined.covering_projections += member_scores[e].covering_projections;
    switch (kind) {
      case CombinerKind::kCumulativeSum:
        score += abnormality;
        break;
      case CombinerKind::kBreadthFirst:  // no population: degrade to max
      case CombinerKind::kMax:
        // Raw units on purpose: all members share one grid and objective,
        // so the deepest find wins regardless of which member made it.
        score = std::max(score, abnormality);
        break;
      case CombinerKind::kMeanNormalized:
        score += abnormality / scales[e];
        break;
    }
  }
  if (kind == CombinerKind::kMeanNormalized && !member_scores.empty()) {
    score /= static_cast<double>(member_scores.size());
  }
  combined.score = score;
  return combined;
}

std::vector<size_t> RankEnsembleRows(
    const std::vector<EnsemblePointScore>& scores) {
  std::vector<size_t> order(scores.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (scores[a].score != scores[b].score) {
      return scores[a].score > scores[b].score;
    }
    if (scores[a].covering_projections != scores[b].covering_projections) {
      return scores[a].covering_projections > scores[b].covering_projections;
    }
    return a < b;
  });
  return order;
}

}  // namespace ensemble
}  // namespace hido
