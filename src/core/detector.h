#ifndef HIDO_CORE_DETECTOR_H_
#define HIDO_CORE_DETECTOR_H_

// High-level facade: dataset in, outlier report out. Wires together grid
// construction, parameter choice (§2.4), the chosen search algorithm, and
// postprocessing. This is the entry point most applications should use; the
// lower-level pieces stay public for benchmarking and research.
//
//   hido::OutlierDetector detector;                 // paper defaults
//   hido::DetectionResult result = detector.Detect(data);
//   for (const auto& o : result.report.outliers) { ... }

#include <cstdint>

#include "common/status.h"
#include "core/brute_force.h"
#include "core/evolutionary_search.h"
#include "core/postprocess.h"
#include "data/dataset.h"

namespace hido {

/// Which search explores the projection space.
enum class SearchAlgorithm {
  kEvolutionary,  ///< Figure 3 (default; scales to high dimensionality)
  kBruteForce,    ///< Figure 2 (exact; exponential in k)
};

/// Detector configuration. Zeros mean "choose automatically per §2.4".
struct DetectorConfig {
  /// Ranges per attribute; 0 = heuristic from N (<= 10). At most
  /// GridModel::kMaxPhi.
  size_t phi = 0;
  /// Projection dimensionality k; 0 = k* from the sparsity target.
  size_t target_dim = 0;
  /// Target sparsity level s used when target_dim is 0 (must be < 0).
  double sparsity_target = -3.0;
  /// Number of abnormal projections to report (the paper's m).
  size_t num_projections = 20;
  SearchAlgorithm algorithm = SearchAlgorithm::kEvolutionary;  ///< search to run
  BinningMode binning = BinningMode::kEquiDepth;  ///< discretization mode
  ExpectationModel expectation = ExpectationModel::kUniform;  ///< E[count] model
  /// Evolutionary knobs; target_dim/num_projections/seed/num_threads/stop
  /// are overwritten from the fields here. The brute force has no knobs of
  /// its own: it runs with target_dim/num_projections/num_threads/stop.
  EvolutionaryOptions evolution;
  uint64_t seed = 42;  ///< master RNG seed for the whole run
  /// Worker threads for the grid build and whichever search runs (0 = all
  /// hardware threads); the only width, written into every search's
  /// options. The evolutionary determinism contract (same seed ⇒ same
  /// result for any thread count) applies — see EvolutionaryOptions.
  size_t num_threads = 1;
  /// Cooperative stop for the grid build and whichever search runs
  /// (nullable); the only stop, written into every search's options. A
  /// fired token degrades Detect to a valid best-so-far report with
  /// `DetectionResult::completed == false`. Must outlive the Detect call.
  const StopToken* stop = nullptr;
};

/// Worker threads the grid build and search of `config` run on:
/// `num_threads`, 0 meaning all hardware threads.
size_t SearchThreads(const DetectorConfig& config);

/// Everything produced by one detection run.
struct DetectionResult {
  OutlierReport report;  ///< flagged points + their sparse projections
  /// The fitted grid (kept so outliers can be explained against the data).
  GridModel grid;
  size_t phi = 0;          ///< parameters actually used
  size_t target_dim = 0;   ///< projection dimensionality actually used
  SearchAlgorithm algorithm = SearchAlgorithm::kEvolutionary;  ///< as run
  double seconds = 0.0;    ///< total wall-clock of Detect
  /// False when `stop` fired before the search finished; the report then
  /// ranks everything found up to that point and every listed
  /// projection/outlier is still valid.
  bool completed = true;
  /// Which stop source fired when completed == false (kNone otherwise).
  StopCause stop_cause = StopCause::kNone;
  EvolutionStats evolution_stats;    ///< valid for kEvolutionary
  BruteForceStats brute_force_stats; ///< valid for kBruteForce
};

/// Reusable, configured detector. Thread-compatible: one Detect call at a
/// time per instance; distinct instances are independent.
class OutlierDetector {
 public:
  /// A detector with default configuration.
  OutlierDetector();
  /// A detector with validated `config` (invalid values are clamped).
  explicit OutlierDetector(const DetectorConfig& config);

  /// Runs detection on `data` (num_rows >= 1, num_cols >= 1).
  DetectionResult Detect(const Dataset& data) const;

  /// Checks the checkpoint in `config().evolution.resume`, when an
  /// evolutionary run has one, against `data` before any grid is built:
  /// the FailedPrecondition ValidateCheckpoint gives for a checkpoint of
  /// another seed, input or configuration. Detect treats such a mismatch
  /// as a broken invariant, so callers resuming outside input check here.
  Status CheckResume(const Dataset& data) const;

  const DetectorConfig& config() const { return config_; }  ///< as constructed

 private:
  DetectorConfig config_;
};

}  // namespace hido

#endif  // HIDO_CORE_DETECTOR_H_
