#ifndef HIDO_OBS_TELEMETRY_H_
#define HIDO_OBS_TELEMETRY_H_

// RunTelemetry: one machine-readable snapshot of a run — configuration,
// the metrics registry, tool-specific result rows, and the trace timing
// tree — serialized to JSON with a fixed section order:
//
//   schema_version, tool, config, counters, gauges, histograms, results,
//   timing
//
// Determinism contract: for a fixed seed and complete run, the `config`,
// `counters`, `histograms`, and `results` sections are byte-identical at
// any thread count and counting kernel, *except* instruments declared
// `variant` in the machine-readable contract block below — scheduling-
// dependent breakdowns (the kNN scored/pruned split, pool.* gauges) and the
// client-dependent serve.* family. counter.queries is invariant — every
// query increments it exactly once. The serve.* family is client-dependent
// rather than thread-dependent: deterministic for a scripted client
// schedule (the CI chaos job asserts exact values) but dependent on kernel
// read coalescing when clients race. Wall-clock lives only in `timing` and
// in explicitly "_seconds"-named result fields, so consumers can diff
// everything above it. telemetry_invariance_test.cc enforces the invariant
// set.
//
// The block between the markers is the metric contract, machine-checked
// by hido_lint's metric-contract rule: every Counter/Gauge/Histogram name
// registered under src/ must appear here with its kind and variance, and
// every entry here must be registered somewhere — dead documentation
// fails lint. Entry format:
//   // <counter|gauge|histogram> <name> <invariant|variant> [note...]
// A `<placeholder>` segment matches one runtime-chosen segment
// (serve.<endpoint>.requests, run.stops.<cause>).
//
// METRIC-CONTRACT-BEGIN
//   counter baseline.db.outliers_flagged invariant
//   counter baseline.db.points_judged invariant
//   counter baseline.knn.points_pruned variant scored/pruned split races on the shared cutoff
//   counter baseline.knn.points_scored variant scored/pruned split races on the shared cutoff
//   counter baseline.lof.points_scored invariant
//   counter brute.cubes_evaluated invariant
//   counter brute.nodes_visited invariant
//   counter brute.runs invariant
//   counter brute.subtrees_pruned invariant
//   counter checkpoint.resumes invariant
//   counter checkpoint.save_failures invariant
//   counter checkpoint.saves invariant
//   counter counter.queries invariant one increment per query
//   counter data.columns_encoded invariant
//   counter data.csv_loads invariant
//   counter data.csv_rows invariant
//   counter detect.points_flagged invariant
//   counter detect.projections_reported invariant
//   counter detect.runs invariant
//   counter ensemble.members_run invariant
//   counter ensemble.points_scored variant client-dependent (serving path)
//   counter ensemble.projections_reported invariant
//   counter ensemble.runs invariant
//   counter grid.builds invariant
//   counter grid.cells_indexed invariant
//   counter grid.points_indexed invariant
//   counter run.stops.<cause> invariant omitted for clean completion
//   counter search.crossovers invariant
//   counter search.evaluations invariant
//   counter search.generations invariant
//   counter search.mutations invariant
//   counter search.restarts_completed invariant
//   counter search.runs invariant
//   counter search.selections invariant
//   counter serve.accept.errors variant client-dependent
//   counter serve.errors variant client-dependent
//   counter serve.evictions variant client-dependent
//   counter serve.model.swaps variant client-dependent
//   counter serve.shed.connections variant client-dependent
//   counter serve.shed.requests variant client-dependent
//   counter serve.timeouts variant client-dependent
//   counter serve.<endpoint>.requests variant client-dependent
//   counter snapshot.v2.loads variant client-dependent (loads count swaps)
//   counter snapshot.v2.saves invariant one per ensemble serialization
//   gauge cube.kernel.<kernel> variant which counting kernel served the run
//   gauge pool.queue_high_water variant scheduling-dependent
//   gauge pool.tasks_executed variant scheduling-dependent
//   gauge pool.workers variant configuration of the shared pool at capture
//   gauge serve.conn.active variant client-dependent; 0 after a clean drain
//   gauge serve.model.generation variant client-dependent
//   histogram ensemble.combine.seconds variant wall-clock
//   histogram ensemble.member.duration_seconds variant wall-clock
//   histogram search.restart_generations invariant
//   histogram serve.batch.size variant client-dependent
//   histogram serve.<endpoint>.latency_seconds variant wall-clock
//   histogram trace.<span>.seconds variant wall-clock
// METRIC-CONTRACT-END

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hido {
namespace obs {

/// A tagged scalar for config/result entries.
class TelemetryValue {
 public:
  /// Implicit converting constructors, one per tagged kind, so row
  /// literals like {"seed", 42} read naturally.
  TelemetryValue(std::string value)  // NOLINT(google-explicit-constructor)
      : kind_(Kind::kString), string_(std::move(value)) {}
  /// String-literal overload (avoids the bool conversion trap).
  TelemetryValue(const char* value)  // NOLINT(google-explicit-constructor)
      : kind_(Kind::kString), string_(value) {}
  /// Tags as a signed integer.
  TelemetryValue(int value)  // NOLINT(google-explicit-constructor)
      : kind_(Kind::kInt), int_(value) {}
  /// Tags as a signed integer.
  TelemetryValue(int64_t value)  // NOLINT(google-explicit-constructor)
      : kind_(Kind::kInt), int_(value) {}
  /// Tags as an unsigned integer (counter values).
  TelemetryValue(uint64_t value)  // NOLINT(google-explicit-constructor)
      : kind_(Kind::kUInt), uint_(value) {}
  /// Tags as a double (serialized with %.17g round-tripping).
  TelemetryValue(double value)  // NOLINT(google-explicit-constructor)
      : kind_(Kind::kDouble), double_(value) {}
  /// Tags as a boolean.
  TelemetryValue(bool value)  // NOLINT(google-explicit-constructor)
      : kind_(Kind::kBool), bool_(value) {}

  /// Appends this value to `writer` with its native JSON type.
  void WriteTo(JsonWriter& writer) const;
  /// Human-readable rendering for --stats summaries.
  std::string ToDisplayString() const;

 private:
  enum class Kind { kString, kInt, kUInt, kDouble, kBool };
  Kind kind_;
  std::string string_;
  int64_t int_ = 0;
  uint64_t uint_ = 0;
  double double_ = 0.0;
  bool bool_ = false;
};

/// An ordered key/value row (caller-controlled order; serialized as-is).
using TelemetryRow = std::vector<std::pair<std::string, TelemetryValue>>;

/// The full snapshot of one run.
struct RunTelemetry {
  int schema_version = 1;              ///< bumped on layout changes
  std::string tool;                    ///< producing binary, e.g. "hido"
  TelemetryRow config;                 ///< resolved run configuration
  MetricsSnapshot metrics;             ///< counters/gauges/histograms
  std::vector<TelemetryRow> results;   ///< tool-specific result rows
  TraceNode timing;                    ///< wall-clock trace tree
};

/// Snapshots the global registry, the global tracer, and the shared
/// ThreadPool's statistics (bridged into `pool.*` gauges) into one
/// RunTelemetry. The caller fills `config` and `results`.
RunTelemetry CaptureRunTelemetry(const std::string& tool);

/// The canonical JSON form (see the section order above). Ends with '\n'.
std::string SerializeRunTelemetry(const RunTelemetry& telemetry);

/// Serializes and writes with an atomic write-rename.
Status WriteRunTelemetryJson(const RunTelemetry& telemetry,
                             const std::string& path);

/// Human-readable `--stats` rendering: counters/gauges/histograms plus an
/// indented timing tree.
std::string RenderTelemetrySummary(const RunTelemetry& telemetry);

}  // namespace obs
}  // namespace hido

#endif  // HIDO_OBS_TELEMETRY_H_
