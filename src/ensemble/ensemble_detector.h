#ifndef HIDO_ENSEMBLE_ENSEMBLE_DETECTOR_H_
#define HIDO_ENSEMBLE_ENSEMBLE_DETECTOR_H_

// The subspace-ensemble meta-detector: E diverse members (GA restarts with
// distinct seeds, Liu & Fokoué random-subspace sampling, local-search
// variants) run over ONE grid, and their per-point scores fold through a
// pluggable combiner (He et al.).
//
// Cost model: the members share the grid (built once) and the
// projection/objective encoding; each member counts its own cubes. Cube
// counts are not memoized across members: on the end-to-end benchmark an
// E=5 ensemble ran faster with no memo at all (DESIGN.md "Why cube counts
// are not memoized").
//
// Determinism contract (the repo's standing invariant): members run
// *sequentially* in member order, each deterministic for its derived seed
// (the GA's own contract covers its internal fan-out; the sampling members
// are single-stream). The combiner is pure. An EnsembleDetectionResult is
// therefore bit-identical across thread counts; only the variant telemetry
// (durations) moves.

#include <cstdint>
#include <vector>

#include "core/detector.h"
#include "core/scoring.h"
#include "ensemble/combiner.h"
#include "ensemble/member.h"

namespace hido {
namespace ensemble {

/// Ensemble-specific knobs layered over a DetectorConfig.
struct EnsembleOptions {
  /// Number of members E (>= 1; 1 degrades to a single wrapped search).
  size_t num_members = 3;
  /// How per-member scores fold into the ensemble score.
  CombinerKind combiner = CombinerKind::kMeanNormalized;
  /// Member-kind cycle; member i runs mix[i % mix.size()]. Empty = all-GA
  /// (decorrelated restarts).
  std::vector<MemberKind> mix;
  /// Random-subspace members: objective evaluations per member, spent on
  /// a pool of half the attributes (at least the projection
  /// dimensionality).
  uint64_t subspace_evaluations = 20000;
  /// Local-search members (hill-climb/anneal): evaluations per member.
  uint64_t local_evaluations = 20000;
};

/// Full ensemble configuration: the shared search/grid knobs plus the
/// ensemble layer. `base.seed` derives every member seed; `base.algorithm`
/// is ignored (the mix decides what runs).
struct EnsembleConfig {
  DetectorConfig base;       ///< grid, phi/k, threads, stop
  EnsembleOptions ensemble;  ///< member count, mix, combiner
};

/// What one member contributed.
struct EnsembleMemberResult {
  MemberKind kind = MemberKind::kGa;  ///< strategy that ran
  uint64_t seed = 0;                  ///< derived member seed
  /// The member's best projections (most negative sparsity first).
  std::vector<ScoredProjection> projections;
  /// Max training abnormality (combiner normalization scale; >= 1e-300).
  double score_scale = 1.0;
  uint64_t evaluations = 0;  ///< objective evaluations the member consumed
  double seconds = 0.0;      ///< member wall-clock (variant)
  bool completed = true;     ///< false when a stop interrupted the member
};

/// Everything produced by one ensemble detection run.
struct EnsembleDetectionResult {
  /// The fitted grid (shared by every member; kept for explain/scoring).
  GridModel grid;
  size_t phi = 0;         ///< ranges per attribute actually used
  size_t target_dim = 0;  ///< projection dimensionality actually used
  CombinerKind combiner = CombinerKind::kMeanNormalized;  ///< as combined
  std::vector<EnsembleMemberResult> members;  ///< per-member contributions
  /// Combined per-point scores, indexed by row (higher = stronger).
  std::vector<EnsemblePointScore> scores;
  /// Rows ranked strongest first (RankEnsembleRows of `scores`).
  std::vector<size_t> ranked_rows;
  double seconds = 0.0;  ///< total wall-clock of Detect
  /// False when a stop interrupted the run; members that finished are kept
  /// and combined, so the result is a valid best-so-far ensemble.
  bool completed = true;
  /// Which stop source fired when completed == false.
  StopCause stop_cause = StopCause::kNone;
};

/// Reusable, configured ensemble detector. Thread-compatible: one Detect
/// call at a time per instance; distinct instances are independent.
class EnsembleDetector {
 public:
  /// A detector with validated `config` (member count clamped to >= 1).
  explicit EnsembleDetector(const EnsembleConfig& config);

  /// Runs the ensemble on `data` (num_rows >= 1, num_cols >= 1).
  EnsembleDetectionResult Detect(const Dataset& data) const;

  const EnsembleConfig& config() const { return config_; }  ///< as built

 private:
  EnsembleConfig config_;
};

}  // namespace ensemble
}  // namespace hido

#endif  // HIDO_ENSEMBLE_ENSEMBLE_DETECTOR_H_
