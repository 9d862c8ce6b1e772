#ifndef HIDO_CORE_SEARCH_CHECKPOINT_H_
#define HIDO_CORE_SEARCH_CHECKPOINT_H_

// Resumable snapshots of an evolutionary search: everything needed to
// continue an interrupted batch bit-identically — per-restart RNG stream
// positions, populations with cached fitness, restart-local best sets, and
// evaluation and operator totals — plus a fingerprint of the configuration the
// snapshot was taken under, so a checkpoint can never silently resume a
// different experiment.
//
// Restart states:
//   * done      — the restart ran to its natural stopping rule; its outcome
//                 is replayed from the snapshot without recomputation.
//   * partial   — interrupted mid-run; resumes at the saved generation from
//                 the saved RNG position. Snapshots are taken at generation
//                 boundaries (before any of that generation's RNG draws), so
//                 the continued variate stream is exactly the uninterrupted
//                 one.
//   * unstarted — resumes from scratch on its own RNG stream.
// Because each restart owns an independent RNG stream and restart-local
// BestSet (merged in restart order under key-based tie-breaking), the
// resumed batch's result and its evaluation and operator totals are identical
// to the uninterrupted run's at any thread count.
//
// Format: a versioned `key value...` line format in the style of the
// model snapshot (serve/snapshot.h; %.17g round-trips doubles exactly);
// files are written with an atomic write-rename, so a crash mid-write
// leaves the previous complete checkpoint in place.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/evolutionary_search.h"
#include "core/genetic/individual.h"
#include "grid/grid_model.h"

namespace hido {

/// Snapshot of one restart of the batch.
struct RestartCheckpoint {
  /// Progress of this restart (see the state table in the file comment).
  enum class State { kUnstarted, kPartial, kDone };
  State state = State::kUnstarted;  ///< which phase this restart is in

  // kPartial and kDone:
  std::vector<ScoredProjection> best;  ///< restart-local best set, sorted
  uint64_t evaluations = 0;            ///< objective evaluations so far
  // Genetic-operator totals so far, carried across interruptions so a
  // resumed run's telemetry counters equal the uninterrupted run's.
  uint64_t crossovers = 0;              ///< crossover operations so far
  uint64_t mutations = 0;               ///< mutation operations so far
  uint64_t selections = 0;              ///< selection operations so far
  /// kDone: generations the restart ran; kPartial: the generation index the
  /// resumed run continues at (its draws have not happened yet).
  size_t generation = 0;

  /// kDone only: why the restart stopped.
  StopReason stop_reason = StopReason::kMaxGenerations;

  // kPartial only:
  size_t stagnant_generations = 0;  ///< generations without improvement
  RngState rng;                     ///< stream position at the boundary
  /// The evaluated population entering `generation` (fitness cached, so
  /// resume performs no extra evaluations).
  std::vector<Individual> population;
};

/// A whole-search snapshot: configuration fingerprint + one entry per
/// restart.
struct EvolutionCheckpoint {
  // Fingerprint of the options and grid the snapshot belongs to; resume
  // rejects a checkpoint whose fingerprint differs in any field.
  uint64_t seed = 0;                   ///< master seed of the batch
  size_t restarts = 0;                 ///< restarts in the batch
  size_t population_size = 0;          ///< individuals per generation
  size_t max_generations = 0;          ///< generation cap per restart
  size_t stagnation_generations = 0;   ///< stagnation stopping rule
  double convergence_threshold = 0.0;  ///< convergence stopping rule
  size_t elitism = 0;                  ///< elites carried per generation
  int crossover = 0;                   ///< crossover operator id
  double mutation_p1 = 0.0;            ///< mutation probability p1
  double mutation_p2 = 0.0;            ///< mutation probability p2
  size_t target_dim = 0;               ///< projection dimensionality k
  size_t num_projections = 0;          ///< best-set capacity m
  int expectation = 0;                 ///< ExpectationModel as int
  size_t num_dims = 0;                 ///< dataset dimensionality d
  size_t phi = 0;                      ///< grid ranges per dimension
  size_t num_points = 0;               ///< dataset rows n

  std::vector<RestartCheckpoint> runs;  ///< one entry per restart
};

/// The grid facts a checkpoint is fingerprinted with. All three are known
/// before the grid is built: the data's rows and columns, and the φ the
/// detector resolves from them.
struct GridShape {
  size_t num_points = 0;  ///< dataset rows n
  size_t num_dims = 0;    ///< dataset dimensionality d
  size_t phi = 0;         ///< grid ranges per dimension

  /// The shape of a built grid.
  static GridShape Of(const GridModel& grid);
};

/// An all-unstarted checkpoint fingerprinting `options` over `grid`.
EvolutionCheckpoint MakeCheckpointShell(const EvolutionaryOptions& options,
                                        const GridModel& grid,
                                        ExpectationModel expectation);

/// Serializes to the versioned text format.
std::string SerializeCheckpoint(const EvolutionCheckpoint& checkpoint);

/// Parses the text format (ParseError on any malformed content). Memory
/// grows with the entries the text holds, never with a count it claims.
Result<EvolutionCheckpoint> ParseCheckpoint(std::string_view text);

/// Rejects a checkpoint whose fingerprint or structure does not match
/// `options` + a grid of `shape` (so --resume cannot silently mix
/// experiments): FailedPrecondition naming the first field that differs,
/// or the entry the search could not have written.
Status ValidateCheckpoint(const EvolutionCheckpoint& checkpoint,
                          const EvolutionaryOptions& options,
                          const GridShape& shape,
                          ExpectationModel expectation);

/// File wrappers. Saving uses an atomic write-rename.
Status SaveCheckpointAtomic(const EvolutionCheckpoint& checkpoint,
                            const std::string& path);
/// Reads and parses a checkpoint file (IO or parse errors as Result).
Result<EvolutionCheckpoint> LoadCheckpoint(const std::string& path);

}  // namespace hido

#endif  // HIDO_CORE_SEARCH_CHECKPOINT_H_
