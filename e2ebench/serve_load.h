#ifndef HIDO_E2EBENCH_SERVE_LOAD_H_
#define HIDO_E2EBENCH_SERVE_LOAD_H_

// The serve phase of a workload: an in-process SocketServer on loopback in
// front of a ScoreService (2 threads), driven by one client thread over two
// connections. The client either keeps a fixed number of `score` requests
// in flight (closed loop), or sends them on a fixed schedule at a `low` and
// a `high` rate (open loop) and then climbs a rate ladder. In every fixed
// phase it alternates the served snapshot (a <-> b) with a `swap` once per
// second beside the scores. Last, twenty swaps are timed through the
// service. Every reply is checked against the answer the service gave
// offline for the same query on the same snapshot.
//
// The closed loop's throughput is the median over whole seconds of the
// replies received in each: it is bound by the server's work, not by
// wake-up latency, so it moves with the host far less than a latency does.
//
// A latency percentile is taken per window, then the median over windows:
// a stall of the whole host moves one window, not the figure. A window of a
// fixed phase spans whole seconds (so each holds the same number of swaps)
// and at least 1000 requests; a window of a rung is 1000 requests (the
// fewest that leave 10 samples beyond p99); every phase lasts at least one
// window. A rate is sustained when that p99 is within 2 ms and no backlog
// builds.

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

/// Reads everything the non-blocking `fd` has available onto `buffer`,
/// then calls `on_line` for each complete line in `buffer` (without its
/// '\n') and keeps the unterminated rest. Sets `*closed` when the peer has
/// closed. False on a read error other than EAGAIN or EINTR.
bool ReadReplyLines(int fd, std::string* buffer, bool* closed,
                    const std::function<void(std::string_view)>& on_line);

/// Rates and phase lengths of one serve run.
struct ServePlan {
  double closed_seconds = 0.0;  ///< length of the closed loop; 0 skips it
  double low_rps = 0.0;         ///< the light fixed rate
  double high_rps = 0.0;        ///< the heavy fixed rate
  /// Length of the low-rate phase; 0 skips both fixed-rate phases and the
  /// ladder.
  double low_seconds = 0.0;
  double high_seconds = 0.0;    ///< length of the high-rate phase
  std::vector<double> ladder;   ///< climbing rates, ascending
  double rung_seconds = 0.3;    ///< length of one ladder rung
};

/// What the client sends and what it must get back.
struct ServeInputs {
  std::vector<std::string> queries;  ///< request lines ("score v1,...")
  /// expected[v][i]: the offline reply to queries[i] on snapshot v (0 = a,
  /// 1 = b), up to but excluding " gen=".
  std::vector<std::string> expected[2];
  std::string snapshot_path[2];  ///< the two snapshot files swapped between
};

/// Latency sample of one fixed-rate phase (seconds, timed from due).
struct PhaseStats {
  std::vector<double> latencies;
  uint64_t sent = 0;
  double late_fraction = 0.0;  ///< generator lateness (> 100 us)
  bool backlog = false;  ///< in-flight requests outgrew the rate
  double windowed_p50 = 0.0;  ///< median over windows of the window p50
  double windowed_p99 = 0.0;  ///< median over windows of the window p99
};

/// Everything one serve run measured.
struct ServeOutcome {
  double closed_rps = 0.0;  ///< closed-loop replies per second, median
  PhaseStats low;
  PhaseStats high;
  double max_rps = 0.0;  ///< highest rate within the p99 limit
  /// Round trips of the swaps timed through the service, by target: [0]
  /// installs snapshot a, [1] b.
  std::vector<double> swap_seconds[2];
  uint64_t attempted = 0;  ///< score + swap requests sent
  uint64_t failed = 0;     ///< mismatched, err, or missing replies
  std::string first_failure;  ///< description of the first failure
  /// Service-side view of the high phase, from the registry.
  double service_p50_seconds = 0.0;
  double service_p99_seconds = 0.0;
  double batch_size_mean = 0.0;
};

/// Runs the serve phase. `inputs.snapshot_path[0]` is published first.
ServeOutcome RunServe(const ServePlan& plan, const ServeInputs& inputs);

/// Mean ScoreService::Process time per request (seconds) for `queries` on
/// the snapshot at `path`, in batches of `batch_size` on 2 threads.
double MeasureHandleSeconds(const std::string& path,
                            const std::vector<std::string>& queries,
                            size_t batch_size, double budget_seconds);

/// Median time (seconds) to load + parse the snapshot at `path`.
double MeasureLoadSeconds(const std::string& path, double budget_seconds);

}  // namespace e2e

#endif  // HIDO_E2EBENCH_SERVE_LOAD_H_
