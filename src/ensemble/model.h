#ifndef HIDO_ENSEMBLE_MODEL_H_
#define HIDO_ENSEMBLE_MODEL_H_

// The fitted detector, as it is saved, served and scored. In the paper a
// fitted detector is two things: the phi equi-depth range boundaries of
// every attribute (§2.4) and the reported abnormal cubes. A Model holds one
// Quantizer for the first and E >= 1 member cube lists for the second.
// Following He et al.'s unified subspace-ensemble framework, a single fit
// is the one-member model with no combiner; an ensemble fit also records
// each member's kind, seed and score scale and the combiner its member
// scores fold through.
//
// Scoring a new point is one quantization followed by a cube-membership
// test per member: Score maps each coordinate to its cell at most once,
// however many members and cubes test that dimension, and every member
// tests its cubes against those cells. The result is bit-identical to
// ScoreAllPoints for a training row (single fit) and to CombinePoint over
// the members' ScoreAllPoints rows (ensemble). The one asymmetry —
// kBreadthFirst has no population to rank a single point against and
// degrades to kMax — is documented on CombinePoint.
//
// The on-disk forms (snapshot v1 for single fits, v2 for ensembles) are
// written and read by serve/snapshot.h.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/objective.h"
#include "ensemble/combiner.h"
#include "ensemble/member.h"
#include "grid/quantizer.h"

namespace hido {

class Dataset;           // data/dataset.h
struct DetectionResult;  // core/detector.h

namespace ensemble {

struct EnsembleDetectionResult;  // ensemble/ensemble_detector.h

/// One member's reported cubes. Kind, seed and scale carry meaning only in
/// an ensemble model; a single fit's member keeps their defaults.
struct ModelMember {
  MemberKind kind = MemberKind::kGa;  ///< strategy the member ran
  uint64_t seed = 0;                  ///< the member's derived seed
  /// Fit-time MemberScoreScale (max training abnormality; > 0).
  double score_scale = 1.0;
  /// The member's abnormal projections (most negative sparsity first).
  std::vector<ScoredProjection> projections;
};

/// One out-of-sample point's score under a Model.
struct ModelScore {
  /// Single fit: the most negative sparsity among covering cubes (more
  /// negative = stronger outlier). Ensemble: the combined score (higher =
  /// stronger). 0 when no cube covers the point.
  double score = 0.0;
  /// Covering cubes, summed over every member.
  size_t covering_projections = 0;
};

/// A fitted detector: one quantizer, E >= 1 members and, for ensemble
/// fits, their combiner. Copyable value type; serve::ModelSnapshot wraps it
/// for RCU swapping.
struct Model {
  Quantizer quantizer;  ///< the fitted range boundaries, shared by members
  /// Column names, parallel to the quantizer's columns.
  std::vector<std::string> column_names;
  /// Training-set size (kept for interpreting the sparsity coefficients).
  size_t num_points = 0;
  /// The combiner of an ensemble fit; empty for a single fit.
  std::optional<CombinerKind> combiner;
  /// The fitted members: exactly one for a single fit.
  std::vector<ModelMember> members;

  /// The one-member model of a single detection run. `data` supplies the
  /// column names and must be the dataset that was detected on. A run
  /// stopped before its grid was built yields an unfitted quantizer.
  static Model FromDetection(const DetectionResult& result,
                             const Dataset& data);

  /// The model of an ensemble run: one member per finished ensemble member,
  /// all sharing the run's quantizer, plus the run's combiner. `data`
  /// supplies the column names.
  static Model FromEnsemble(const EnsembleDetectionResult& result,
                            const Dataset& data);

  /// True for an ensemble fit (a combiner is set).
  bool is_ensemble() const { return combiner.has_value(); }

  /// Input dimensionality the model expects.
  size_t num_dims() const { return quantizer.num_cols(); }

  /// Abnormal projections, summed over members.
  size_t num_projections() const;

  /// Scores an out-of-sample point. `values` must hold num_dims()
  /// coordinates; NaN marks a missing coordinate, which never matches a
  /// condition. Ensemble scores publish one ensemble.points_scored
  /// increment per call.
  ModelScore Score(const std::vector<double>& values) const;
};

}  // namespace ensemble
}  // namespace hido

#endif  // HIDO_ENSEMBLE_MODEL_H_
