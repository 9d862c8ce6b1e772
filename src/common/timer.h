#ifndef HIDO_COMMON_TIMER_H_
#define HIDO_COMMON_TIMER_H_

// Wall-clock stopwatch for the benchmark harnesses.

#include <chrono>

namespace hido {

/// Monotonic stopwatch; starts running at construction.
class StopWatch {
 public:
  /// Starts timing at construction.
  StopWatch() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last Reset().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace hido

#endif  // HIDO_COMMON_TIMER_H_
