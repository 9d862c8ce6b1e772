#ifndef HIDO_SERVE_SNAPSHOT_H_
#define HIDO_SERVE_SNAPSHOT_H_

// The immutable model snapshot produced by `hido fit` and `hido detect
// --save-model` and consumed by `hido serve`, `hido score` and the
// ScoreService: fit provenance plus one ensemble::Model. A snapshot is
// written once (atomic write-rename) and never mutated; refits publish a
// *new* snapshot and the service swaps a shared_ptr (see
// serve/score_service.h).
//
// This file's codec is the only code that reads or writes model files: it
// writes v1 for single fits and v2 for ensembles, and also reads the bare
// model text older builds wrote, as a header-less v1.
//
// v1 (single model):
//
//   hido-snapshot v1
//   algorithm evolutionary
//   seed 42
//   phi 10
//   target_dim 3
//   model
//   <model text to EOF>
//
// v2 (ensemble): the header carries the combiner and member count, then
// one length-prefixed block per member. Each block is a complete model
// text: a copy of the shared quantizer followed by the member's cubes. The
// byte length makes each block self-delimiting, and every copy of the
// quantizer, column names and num_points must agree:
//
//   hido-snapshot v2
//   algorithm ensemble
//   seed 42
//   phi 10
//   target_dim 3
//   combiner mean
//   members 2
//   member 0 ga 7811 scale 4.25 model_bytes 431
//   <exactly 431 bytes of model text>
//   member 1 anneal 9310 scale 3.5 model_bytes 407
//   <exactly 407 bytes ...>
//
// Model text (the bare file `hido detect --save-model` wrote before it
// wrote snapshots is exactly this; spaces in column names are stored as
// \x01, and %.17g round-trips every double):
//
//   hido-model v1
//   num_points 400
//   phi 5
//   num_dims 12
//   mode equi-depth
//   column <i> <name> <min> <max> <phi-1 ascending cuts>  (per column)
//   num_projections 10
//   projection <count> <sparsity> <dim>:<cell>...         (per cube)
//
// Unknown *header keys* are ignored (additive extensions stay readable);
// unknown versions, algorithms, kinds, malformed content and trailing bytes
// are rejected. No count read from a file sizes an allocation: containers
// grow as their lines parse. Serialize(Parse(x)) == x for every file this
// codec writes. Ensemble scoring semantics, including the
// kBreadthFirst->kMax degradation for single points, live in
// ensemble/combiner.h.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"
#include "ensemble/model.h"

namespace hido {

struct DetectionResult;  // core/detector.h
class Dataset;           // data/dataset.h

namespace ensemble {
struct EnsembleDetectionResult;  // ensemble/ensemble_detector.h
}  // namespace ensemble

namespace serve {

/// Fit provenance carried alongside the model.
struct SnapshotInfo {
  /// "evolutionary" | "brute-force" (v1) | "ensemble" (v2).
  std::string algorithm = "evolutionary";
  uint64_t seed = 0;        ///< detector seed the fit ran with
  uint64_t phi = 0;         ///< ranges per attribute used at fit time
  uint64_t target_dim = 0;  ///< projection dimensionality used at fit time
};

/// One immutable fitted model plus provenance. `generation` is assigned
/// when a ScoreService publishes the snapshot; it is not serialized.
struct ModelSnapshot {
  SnapshotInfo info;        ///< fit provenance
  ensemble::Model model;    ///< the fitted detector (E = 1 for single fits)
  uint64_t generation = 0;  ///< publish order, 1-based; 0 = unpublished

  /// True when this snapshot serves an ensemble (a v2 snapshot).
  bool is_ensemble() const { return model.is_ensemble(); }
};

/// Builds a v1 snapshot from a finished detection run (fit path). `data`
/// supplies the column names and must be the dataset that was fitted on.
ModelSnapshot MakeSnapshot(const DetectionResult& result,
                           const Dataset& data, uint64_t seed);

/// Builds a v2 snapshot from a finished ensemble run: one member per
/// finished ensemble member, all sharing the run's grid quantizer, plus the
/// combiner. `data` supplies the column names.
ModelSnapshot MakeEnsembleSnapshot(
    const ensemble::EnsembleDetectionResult& result, const Dataset& data,
    uint64_t seed);

/// Canonical text form (deterministic bytes for a given snapshot; v1 for a
/// single fit, v2 for an ensemble).
std::string SerializeSnapshot(const ModelSnapshot& snapshot);

/// Parses v1, v2 or a bare model text (a header-less v1 whose provenance
/// keeps the SnapshotInfo defaults). Unknown versions and malformed content
/// are ParseErrors; unknown *header keys* are ignored so readers tolerate
/// additive extensions.
Result<ModelSnapshot> ParseSnapshot(std::string_view text);

/// Serializes and writes atomically (write-rename). A model with no fitted
/// quantizer or no members — what a fit stopped before its grid was built,
/// or before its first ensemble member finished, leaves — is a
/// FailedPrecondition and nothing is written.
Status SaveSnapshot(const ModelSnapshot& snapshot, const std::string& path);
/// File convenience wrapper: read + ParseSnapshot.
Result<std::shared_ptr<ModelSnapshot>> LoadSnapshot(const std::string& path);

}  // namespace serve
}  // namespace hido

#endif  // HIDO_SERVE_SNAPSHOT_H_
