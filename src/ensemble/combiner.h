#ifndef HIDO_ENSEMBLE_COMBINER_H_
#define HIDO_ENSEMBLE_COMBINER_H_

// Pluggable per-point score combiners for subspace-outlier ensembles, after
// He et al.'s "A Unified Subspace Outlier Ensemble Framework".
//
// Every member contributes one PointScore per row (core/scoring.h: the most
// negative covering sparsity, 0 when uncovered). A member's *abnormality*
// for a row is the negated sparsity score (>= 0 for genuinely sparse
// covers, 0 when uncovered). For the averaging combiner, members are put on
// a common footing by each member's score scale — its maximum training-set
// abnormality — so a member that found deeper sparsity does not drown out
// the others under score averaging; the max and cumsum combiners keep raw
// sparsity units, which are already shared across members of one ensemble.
//
// Combined scores are "higher = stronger outlier" (ranks and normalized
// scores have no natural negative orientation); RankEnsembleRows gives the
// strongest-first ordering. Everything here is pure and deterministic: the
// combined vector is a function of the member score vectors alone, so
// ensemble reports inherit the repo's byte-identical-across-threads
// contract from the member searches.

#include <cstddef>
#include <string>
#include <vector>

#include "core/scoring.h"

namespace hido {
namespace ensemble {

/// How per-member scores are folded into one ensemble score per point.
enum class CombinerKind {
  /// Rank aggregation: walk the members' rankings breadth-first (best row
  /// of each member, then second-best of each, ...) and score rows by first
  /// appearance. Robust to incomparable score magnitudes.
  kBreadthFirst,
  /// Sum of raw abnormalities (He et al.'s cumulative sum): members that
  /// agree reinforce; magnitude-sensitive.
  kCumulativeSum,
  /// Maximum raw abnormality: a point is as outlying as its most alarmed
  /// member, in shared sparsity units. Deliberately NOT scale-normalized:
  /// every member scores on the same grid with the same sparsity objective,
  /// so abnormalities are directly comparable — and dividing by per-member
  /// maxima would promote a weak member's mediocre best to 1.0, burying a
  /// strong member's genuinely deep find. Best for disjoint member
  /// specialities (each member unions its deepest cells into the top).
  kMax,
  /// Mean of scale-normalized abnormalities: the smooth consensus default.
  kMeanNormalized,
};

/// Canonical lowercase name ("breadth-first", "cumsum", "max", "mean").
const char* CombinerKindToString(CombinerKind kind);

/// Inverse of CombinerKindToString. Returns false on unknown names.
bool ParseCombinerKind(const std::string& name, CombinerKind* kind);

/// One point's combined ensemble score.
struct EnsemblePointScore {
  size_t row = 0;      ///< dataset row index (SIZE_MAX for new points)
  /// Combined outlier score; higher = stronger, 0 = uncovered everywhere.
  double score = 0.0;
  /// Total covering projections summed over every member.
  size_t covering_projections = 0;
};

/// A member's normalization scale: its maximum training-set abnormality
/// (max over rows of -sparsity_score). Returns 1.0 when the member covered
/// nothing (or found only non-sparse cubes), so dividing by it is always
/// safe and a no-op member contributes zeros rather than NaNs.
double MemberScoreScale(const std::vector<PointScore>& scores);

/// Combines per-member training-set score vectors into one ensemble score
/// per row. `member_scores[e]` is member e's ScoreAllPoints output (indexed
/// by row; all members over the same row count) and `scales[e]` its
/// MemberScoreScale. Each row is combined as CombinePoint combines it,
/// except under kBreadthFirst, which ranks the rows. Member order matters
/// for kBreadthFirst (ranks interleave in member order) and nothing else;
/// the result is deterministic for fixed inputs.
std::vector<EnsemblePointScore> CombineMemberScores(
    CombinerKind kind,
    const std::vector<std::vector<PointScore>>& member_scores,
    const std::vector<double>& scales);

/// Combines one out-of-sample point's per-member scores (the serving path:
/// Model::Score scores the point against each member's cubes and folds the
/// results here). kBreadthFirst has no population to rank against a single
/// point, so it degrades to kMax — documented on ensemble/model.h so
/// fit-time and serve-time semantics stay aligned.
EnsemblePointScore CombinePoint(CombinerKind kind,
                                const std::vector<PointScore>& member_scores,
                                const std::vector<double>& scales);

/// Rows ranked strongest-outlier first: descending combined score, ties by
/// more covering projections, then by row id. The (score, covering, row)
/// key is a total order, so the ranking is deterministic.
std::vector<size_t> RankEnsembleRows(
    const std::vector<EnsemblePointScore>& scores);

}  // namespace ensemble
}  // namespace hido

#endif  // HIDO_ENSEMBLE_COMBINER_H_
