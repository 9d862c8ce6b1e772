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
  /// Ranges per attribute; 0 = heuristic from N (<= 10).
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
  /// Evolutionary knobs; target_dim/num_projections/seed are overridden
  /// from the fields above.
  EvolutionaryOptions evolution;
  /// Brute-force knobs; target_dim/num_projections are overridden.
  BruteForceOptions brute_force;
  uint64_t seed = 42;  ///< master RNG seed for the whole run
  /// Grid ranges with fewer members than this become sorted-array
  /// containers instead of bitmaps (GridModel::Options::array_threshold).
  /// 0 forces all bitmaps; GridModel::kAutoArrayThreshold (the default)
  /// resolves to num_rows / 32. An encoding knob only: reports are
  /// byte-identical at every value.
  size_t container_threshold = GridModel::kAutoArrayThreshold;
  /// Worker threads for whichever search runs. 0 keeps the per-algorithm
  /// settings in `evolution` / `brute_force` untouched; any other value
  /// overrides both. The evolutionary determinism contract (same seed ⇒
  /// same result for any thread count) applies — see EvolutionaryOptions.
  size_t num_threads = 0;
  /// Cooperative stop for whichever search runs (nullable; when set,
  /// overrides the per-algorithm `stop` fields in `evolution` /
  /// `brute_force`). A fired token degrades Detect to a valid best-so-far
  /// report with `DetectionResult::completed == false`. Must outlive the
  /// Detect call.
  const StopToken* stop = nullptr;
};

/// Worker threads the search of `config` runs on: `num_threads` when set,
/// else the chosen algorithm's own setting, 0 meaning all hardware
/// threads. The grid build runs at the same width.
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
  /// False when the search stopped early (deadline, cancel, or an
  /// exhausted cube budget); the report then ranks everything found up to
  /// that point and every listed projection/outlier is still valid.
  bool completed = true;
  /// Which stop source fired when completed == false (kNone for a plain
  /// budget exhaustion).
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
