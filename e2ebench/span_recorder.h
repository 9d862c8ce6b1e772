#ifndef HIDO_E2EBENCH_SPAN_RECORDER_H_
#define HIDO_E2EBENCH_SPAN_RECORDER_H_

// In-memory span recorder for traced benchmark passes. The benchmark opens
// a span around each call it makes into a layer (name, start, end, parent,
// run id); the spans the library records inside Detect (its aggregated
// obs::Tracer tree) are imported beneath the benchmark span that made the
// call. Span names are "<layer>.<what>"; a span's self time is its
// duration minus its children's, and summing self times per layer splits a
// pass's wall time with nothing counted twice. Root spans (the pass itself)
// have no layer: their self time is the unattributed remainder.

#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace e2e {

/// One recorded interval. Times are seconds since the recorder's epoch.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;  ///< index of the parent span; -1 for a root
  int run = 0;      ///< pass the span belongs to
};

class SpanRecorder {
 public:
  SpanRecorder();

  /// Seconds since the recorder's epoch.
  double Now() const;

  /// Opens a span starting now; returns its id.
  int Open(const std::string& name, int parent, int run);
  /// Closes span `id` now.
  void Close(int id);
  /// Records a span with known bounds; returns its id.
  int Add(Span span);

  /// Imports the children of `tree` (a library obs::Tracer snapshot) as
  /// spans under `parent`, recursively. The tree keeps durations, not
  /// start times, so siblings are laid end to end from the parent's start.
  /// Library names are mapped onto benchmark layers (LibrarySpanName).
  void ImportTree(const hido::obs::TraceNode& tree, int parent);

  /// Self time of every span of `run`, summed per layer (the name up to the
  /// first '.'); root spans sum under "unattributed".
  std::map<std::string, double> SelfTimeByLayer(int run) const;

  /// Total duration of all spans of `run` named `name`.
  double Duration(int run, const std::string& name) const;

  /// Every span as one JSON array.
  std::string ToJson() const;

 private:
  double SelfTimeOf(size_t id) const;

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// The benchmark span name for a library span `name` under a parent span
/// named `parent_name`: known phases map to their layer
/// ("grid_build" -> "grid.build"); unknown ones stay in the parent's layer.
std::string LibrarySpanName(const std::string& name,
                            const std::string& parent_name);

/// RAII span on an optional recorder (null = tracing off, no cost).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name, int parent,
             int run)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->Open(name, parent, run) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  int id_;
};

}  // namespace e2e

#endif  // HIDO_E2EBENCH_SPAN_RECORDER_H_
