#ifndef HIDO_COMMON_RUN_CONTROL_H_
#define HIDO_COMMON_RUN_CONTROL_H_

// Unified cooperative cancellation and deadlines for long-running work.
//
// The paper's brute-force enumeration famously "was unable to terminate" on
// high-dimensional inputs; every potentially long entry point in this
// library (both searches, the baselines, the detector facade) therefore
// accepts a StopToken and polls it at a coarse, documented granularity
// (per restart / generation / leaf batch / point). When the token fires the
// entry point does not abort: it returns a *valid best-so-far result*
// marked `completed = false` together with a structured StopCause. The
// caller's token is the only thing that stops a run early: no option
// struct carries a deadline, work budget or clock of its own.
//
// Three stop sources feed one token:
//   * a deadline measured against an injectable Clock (so expiry paths are
//     testable without real sleeps),
//   * an external cancel request (e.g. the CLI's SIGINT handler), and
//   * a failpoint that fires deterministically at the N-th poll, for fault
//     injection in tests.
//
// All methods that a polling worker touches are thread-safe and lock-free;
// RequestCancel is async-signal-safe (a relaxed atomic store), so it may be
// called from a signal handler.

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace hido {

/// Why a run was asked to stop. kNone means "never asked".
enum class StopCause : int {
  kNone = 0,
  kDeadline,   ///< the token's deadline expired
  kCancelled,  ///< RequestCancel (user/SIGINT/programmatic)
  kFailpoint,  ///< an armed test failpoint fired
};

/// Short stable name, e.g. "deadline".
const char* StopCauseToString(StopCause cause);

/// Monotonic time source. Injectable so deadline expiry is testable
/// without wall-clock sleeps.
class Clock {
 public:
  virtual ~Clock() = default;
  /// Seconds since an arbitrary fixed origin; must be monotonic.
  virtual double NowSeconds() const = 0;
  /// The process-wide real (steady_clock) instance.
  static const Clock& Real();
};

/// Manually driven clock for tests. Optionally auto-advances by
/// `step_per_read` seconds on every NowSeconds() call, so a search running
/// under it reaches any deadline after a deterministic number of polls
/// without sleeping. Thread-safe.
class FakeClock final : public Clock {
 public:
  /// Starts at `start`; each NowSeconds() advances by `step_per_read`.
  explicit FakeClock(double start = 0.0, double step_per_read = 0.0)
      : now_(start), step_(step_per_read) {}

  /// The scripted time; auto-advances by the configured step.
  double NowSeconds() const override {
    MutexLock lock(mu_);
    const double now = now_;
    now_ += step_;
    return now;
  }

  /// Moves the scripted time forward by `seconds`.
  void Advance(double seconds) {
    MutexLock lock(mu_);
    now_ += seconds;
  }

  /// Jumps the scripted time to an absolute value.
  void Set(double seconds) {
    MutexLock lock(mu_);
    now_ = seconds;
  }

 private:
  mutable Mutex mu_;
  mutable double now_ HIDO_GUARDED_BY(mu_);
  const double step_;
};

/// Cooperative stop request shared between a controller (CLI, test, signal
/// handler) and the workers polling it. The first cause to fire wins and is
/// sticky: once stopped, every subsequent poll returns true immediately.
class StopToken {
 public:
  /// `clock` (nullable) is used for deadline checks; null = Clock::Real().
  /// The clock must outlive the token.
  explicit StopToken(const Clock* clock = nullptr)
      : clock_(clock ? clock : &Clock::Real()) {}

  StopToken(const StopToken&) = delete;
  StopToken& operator=(const StopToken&) = delete;

  /// Arms a deadline `seconds_from_now` seconds after the current clock
  /// reading; <= 0 clears any deadline. Call before handing the token to
  /// workers (not concurrently with polls of the same token).
  void SetDeadline(double seconds_from_now) {
    deadline_at_.store(seconds_from_now > 0.0
                           ? clock_->NowSeconds() + seconds_from_now
                           : std::numeric_limits<double>::infinity(),
                       std::memory_order_relaxed);
  }

  /// Requests a stop. Async-signal-safe; first cause wins.
  void RequestCancel(StopCause cause = StopCause::kCancelled) {
    int expected = static_cast<int>(StopCause::kNone);
    cause_.compare_exchange_strong(expected, static_cast<int>(cause),
                                   std::memory_order_release,
                                   std::memory_order_relaxed);
  }

  /// Arms a failpoint: the `stop_at_poll`-th call to ShouldStop() (counted
  /// across all threads, starting at 1) requests a kFailpoint stop.
  /// 0 disarms.
  void ArmFailpoint(uint64_t stop_at_poll) {
    failpoint_.store(stop_at_poll, std::memory_order_relaxed);
  }

  /// Polls the token: checks a sticky stop first, then the failpoint, then
  /// the deadline. Thread-safe; this is what workers call.
  bool ShouldStop() const {
    if (cause_.load(std::memory_order_acquire) !=
        static_cast<int>(StopCause::kNone)) {
      return true;
    }
    const uint64_t poll = polls_.fetch_add(1, std::memory_order_relaxed) + 1;
    const uint64_t failpoint = failpoint_.load(std::memory_order_relaxed);
    if (failpoint != 0 && poll >= failpoint) {
      const_cast<StopToken*>(this)->RequestCancel(StopCause::kFailpoint);
      return true;
    }
    const double deadline = deadline_at_.load(std::memory_order_relaxed);
    if (deadline != std::numeric_limits<double>::infinity() &&
        clock_->NowSeconds() >= deadline) {
      const_cast<StopToken*>(this)->RequestCancel(StopCause::kDeadline);
      return true;
    }
    return false;
  }

  /// True when a stop has been requested, without polling the deadline.
  bool stop_requested() const {
    return cause_.load(std::memory_order_acquire) !=
           static_cast<int>(StopCause::kNone);
  }

  /// The winning cause; kNone while still running.
  StopCause cause() const {
    return static_cast<StopCause>(cause_.load(std::memory_order_acquire));
  }

  /// Number of ShouldStop() polls so far (for tests/introspection).
  uint64_t polls() const { return polls_.load(std::memory_order_relaxed); }

  const Clock& clock() const { return *clock_; }  ///< the time source

 private:
  const Clock* clock_;
  std::atomic<int> cause_{static_cast<int>(StopCause::kNone)};
  std::atomic<double> deadline_at_{std::numeric_limits<double>::infinity()};
  std::atomic<uint64_t> failpoint_{0};
  mutable std::atomic<uint64_t> polls_{0};
};

/// Outcome marker shared by every cancellable entry point: did the run see
/// all of its input, and if not, why it stopped.
struct RunStatus {
  bool completed = true;                    ///< ran to natural completion?
  StopCause stop_cause = StopCause::kNone;  ///< why it stopped early
};

/// The single polling contract used by the searches and baselines: latches
/// the caller's optional token for one run. Sticky and thread-safe: once the
/// token fires, every subsequent ShouldStop() returns true without
/// re-polling it.
class StopPoller {
 public:
  /// `stop` (nullable) is the caller's token; null never stops.
  explicit StopPoller(const StopToken* stop) : stop_(stop) {}

  /// True once the token fired; latches.
  bool ShouldStop() const {
    if (stopped_.load(std::memory_order_acquire)) return true;
    if (stop_ != nullptr && stop_->ShouldStop()) {
      stopped_.store(true, std::memory_order_release);
      return true;
    }
    return false;
  }

  /// Has this run latched a stop?
  bool stopped() const { return stopped_.load(std::memory_order_acquire); }

  /// The token's cause once this run latched the stop; kNone otherwise,
  /// even when the token fired after the run's last poll.
  StopCause cause() const {
    return stopped() ? stop_->cause() : StopCause::kNone;
  }

  /// The status a finished run should report.
  RunStatus status() const { return {!stopped(), cause()}; }

 private:
  const StopToken* stop_;
  mutable std::atomic<bool> stopped_{false};
};

/// Maps a fired token to the Status an all-or-nothing entry point (grid
/// construction, dataset loading) returns when it aborts: kDeadlineExceeded
/// for an expired deadline, kCancelled for a cancel or failpoint. Unlike
/// the searches, these paths have no useful best-so-far result, so they
/// discard their partial work and surface the stop as an error. `what`
/// names the aborted operation for the message.
Status StopStatus(const StopToken& token, const std::string& what);

/// Installs a SIGINT handler that requests kCancelled on `token` (replacing
/// any previously installed token), so an interrupted CLI run still emits a
/// valid best-so-far report. Pass nullptr to detach the current token (the
/// handler stays installed but does nothing). The token must outlive its
/// installation.
void InstallSigintCancel(StopToken* token);

}  // namespace hido

#endif  // HIDO_COMMON_RUN_CONTROL_H_
