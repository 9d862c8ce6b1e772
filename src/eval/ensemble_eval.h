#ifndef HIDO_EVAL_ENSEMBLE_EVAL_H_
#define HIDO_EVAL_ENSEMBLE_EVAL_H_

// Rare-class comparison of the subspace ensemble against a single-run GA —
// the acceptance harness for the ensemble claim (He et al.; Liu & Fokoué):
// a *set* of diverse subspace detectors recovers more planted anomalies
// than one GA run of comparable budget.
//
// Protocol: generate a correlated-groups dataset with planted ground truth
// (data/generators/synthetic.h), run (a) one evolutionary search and (b)
// an E-member ensemble from the same master seed, rank each detector's
// points, take the top `eval_top_n` covered rows from each, and score both
// against the planted rows with recall/precision. EXPERIMENTS.md documents
// the reproducible CLI recipe; eval/ensemble_eval_test.cc pins a config
// where the ensemble wins.

#include <cstddef>

#include "core/detector.h"
#include "data/generators/synthetic.h"
#include "ensemble/ensemble_detector.h"

namespace hido {
namespace eval {

/// Parameters of one ensemble-vs-single comparison. The single run and the
/// ensemble share the grid knobs (phi, k, m), expectation model, and
/// master seed; the ensemble layers its member mix on top.
struct EnsembleEvalParams {
  /// Workload with planted ground truth.
  SubspaceOutlierConfig data;
  /// Shared search knobs; `algorithm` is ignored (always GA vs ensemble).
  DetectorConfig detector;
  /// Ensemble layer (member count, mix, combiner).
  ensemble::EnsembleOptions ensemble;
  /// Rows taken from the top of each ranking (0 = the number of planted
  /// anomalies, the natural operating point).
  size_t eval_top_n = 0;
};

/// One side's outcome.
struct EnsembleEvalSide {
  double recall = 0.0;     ///< planted rows recovered / planted rows
  double precision = 0.0;  ///< planted rows recovered / rows flagged
  size_t flagged = 0;      ///< rows actually taken (covered rows only)
  double seconds = 0.0;    ///< wall-clock of the run (variant)
};

/// Both sides of one comparison.
struct EnsembleEvalOutcome {
  EnsembleEvalSide single_run;  ///< one evolutionary search
  EnsembleEvalSide ensemble;    ///< the E-member ensemble
};

/// Runs the comparison. Deterministic for fixed params (both sides inherit
/// the searches' fixed-seed determinism contract).
EnsembleEvalOutcome CompareEnsembleToSingle(const EnsembleEvalParams& params);

}  // namespace eval
}  // namespace hido

#endif  // HIDO_EVAL_ENSEMBLE_EVAL_H_
