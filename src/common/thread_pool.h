#ifndef HIDO_COMMON_THREAD_POOL_H_
#define HIDO_COMMON_THREAD_POOL_H_

// A persistent thread pool for the search algorithms.
//
// The original ParallelFor spawned (and joined) fresh std::threads on every
// call, which is tolerable for one coarse brute-force fan-out but hopeless
// for the evolutionary search, where every generation fans out hundreds of
// small fitness evaluations. This pool keeps its workers alive across calls
// and supports nested ParallelFor: a task running on the pool may itself
// issue a ParallelFor, and the *calling* thread always participates in the
// loop it issued, so forward progress never depends on a free pool worker
// (helpers only add parallelism, they are never required for completion —
// a work-stealing-lite discipline that cannot deadlock).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace hido {

/// Fixed-size pool of background workers. All methods are thread-safe.
class ThreadPool {
 public:
  /// Starts `num_workers` background threads (0 is allowed: every
  /// ParallelFor then runs inline on the calling thread).
  explicit ThreadPool(size_t num_workers);
  /// Drains outstanding work and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Background workers owned by the pool (the calling thread of a
  /// ParallelFor participates on top of these).
  size_t num_workers() const { return workers_.size(); }

  /// Lifetime usage statistics, readable at any time. Values are
  /// scheduling-dependent (they vary run to run and with thread count);
  /// obs/telemetry surfaces them as `pool.*` gauges, segregated from the
  /// deterministic counters.
  struct Stats {
    uint64_t tasks_executed = 0;    ///< queue entries run by workers
    uint64_t queue_high_water = 0;  ///< deepest pending queue observed
  };
  /// A snapshot of the pool's execution counters.
  Stats stats() const {
    return {tasks_executed_.load(std::memory_order_relaxed),
            queue_high_water_.load(std::memory_order_relaxed)};
  }

  /// Runs `work(task_index, worker_index)` for every task in
  /// [0, num_tasks). Tasks are claimed dynamically from an atomic counter,
  /// so uneven task costs balance. The effective parallelism is
  /// min(max_parallelism, num_tasks, num_workers() + 1); the calling thread
  /// is always one of the participants and the call returns only after
  /// every task has finished. Worker indices passed to `work` are unique
  /// per concurrent participant and < the effective parallelism.
  /// Safe to call from inside a task running on this pool (nested loops).
  void ParallelFor(size_t num_tasks, size_t max_parallelism,
                   const std::function<void(size_t task, size_t worker)>& work);

  /// The process-wide pool used by the free ParallelFor: max(1, hardware
  /// threads - 1) background workers, created on first use, alive for the
  /// rest of the process.
  static ThreadPool& Shared();

 private:
  struct ForJob;

  void WorkerLoop();
  void Enqueue(std::function<void()> task) HIDO_LOCKS_EXCLUDED(mutex_);

  Mutex mutex_;
  CondVar cv_{&mutex_};
  std::deque<std::function<void()>> queue_ HIDO_GUARDED_BY(mutex_);
  bool shutdown_ HIDO_GUARDED_BY(mutex_) = false;
  std::atomic<uint64_t> tasks_executed_{0};
  std::atomic<uint64_t> queue_high_water_{0};
  // Written once in the constructor before any worker can observe the pool;
  // immutable (and safely readable without the lock) from then on.
  std::vector<std::thread> workers_;
};

}  // namespace hido

#endif  // HIDO_COMMON_THREAD_POOL_H_
