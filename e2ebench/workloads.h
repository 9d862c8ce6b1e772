#ifndef HIDO_E2EBENCH_WORKLOADS_H_
#define HIDO_E2EBENCH_WORKLOADS_H_

// The benchmark's workloads. Every workload has the same three parts:
//
//   set-up   generate the inputs from the seed, run one 1-thread oracle
//            pass, and freeze the snapshots, held-out query rows and
//            offline replies the serve phase checks against;
//   passes   the workload's pipeline, timed at 4 threads (and, in traced
//            runs, at 1 thread), each pass's output digest checked
//            against the oracle;
//   serve    the fitted snapshots served over loopback (serve_load.h).
//
// Set-up and the timed run are separate processes, so the timed run's
// peak RSS is its own.

#include <cstddef>
#include <cstdint>
#include <string>

namespace e2e {

enum class PipelineKind {
  kDetectCsv,     ///< ReadCsv -> OutlierDetector::Detect -> WriteReport
  kEnsembleWide,  ///< EnsembleDetector::Detect -> snapshot -> serialize
  kFitPair,       ///< single fit (v1) + ensemble fit (v2), both serialized
};

/// One workload: its inputs, its pipeline and its serve capacity.
struct Workload {
  const char* name;
  PipelineKind kind;
  size_t rows;
  size_t dims;
  size_t outliers;
  /// serve.max_rps measured on the seed commit and then frozen; the serve
  /// rates are fixed shares of it (workloads.cc).
  double capacity_rps;
};

/// The workload called `name`, or null.
const Workload* FindWorkload(const std::string& name);

/// Runs set-up three times into `dir` and prints one JSON line with the
/// duration of each repetition. Returns the process exit code.
int RunSetup(const Workload& workload, uint64_t seed, const std::string& dir);

/// Runs the timed passes and the serve phase against the set-up in `dir`
/// for about `seconds`, and prints one JSON line with the attempt counts
/// and the end-to-end (trace off) or per-layer (trace on) metrics. With
/// tracing on, the recorded spans are written to `spans_path`.
int RunTimed(const Workload& workload, uint64_t seed, const std::string& dir,
             double seconds, bool trace, const std::string& spans_path);

}  // namespace e2e

#endif  // HIDO_E2EBENCH_WORKLOADS_H_
