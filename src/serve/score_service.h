#ifndef HIDO_SERVE_SCORE_SERVICE_H_
#define HIDO_SERVE_SCORE_SERVICE_H_

// The transport-independent online scoring service behind `hido serve`:
// holds the current ModelSnapshot behind a mutex-guarded shared_ptr,
// answers line-protocol requests, batches score work onto the shared
// ThreadPool, and enforces a per-request deadline: a request picked up at or
// after its arrival time plus `request_deadline_seconds` is shed.
//
// Lifecycle split (DESIGN.md "Serving"): `hido fit` runs the expensive
// offline search once and freezes the result into a snapshot; scoring a
// point against that snapshot is a pure lookup (quantize each coordinate,
// match against the reported cubes), so the service never touches the
// training data and two requests for the same point always produce the
// same bytes, at any --threads value.
//
// Model swap: Publish() replaces the snapshot pointer under the service's
// mutex, and each request copies the pointer under the same mutex (one
// short uncontended lock per request). In-flight requests finish scoring
// against the snapshot they copied (they hold a shared_ptr); new requests
// see the new one. No lock is held while scoring, so a refit publishes
// with zero downtime and zero failed requests. (A
// std::atomic<std::shared_ptr> is not enough under libstdc++ 12: its load
// releases the internal lock bit with a relaxed store, so nothing orders a
// reader's copy of the pointer before the next store overwrites it.)
//
// Protocol (one request line -> one response line):
//   score <v1>,<v2>,...   ->  ok score=<s> covering=<n> gen=<g>
//   ping                  ->  ok pong
//   info                  ->  ok gen=... dims=... phi=... projections=...
//   stats                 ->  ok requests=... errors=... timeouts=... p50/p99
//   swap <path>           ->  ok swapped gen=<g> dims=<d> projections=<m>
//   shutdown              ->  ok bye            (server loop drains + exits)
//   anything else         ->  err <reason>
// Score values are CSV doubles; missing-value spellings ("", "?", "na",
// "nan", "null") become NaN coordinates, which never match a cube
// condition. Every score is one ensemble::Model::Score call.
//
// Ensemble generations (a v2 snapshot published or swapped in): `score`
// answers `ok score=<s> covering=<n> members=<E> gen=<g>` where <s> is the
// *combined* ensemble score (higher = stronger outlier, unlike the
// single-model sparsity score), and `info` appends ` members=<E>
// combiner=<name>`. Single and ensemble generations swap interchangeably
// with zero downtime — dims compatibility is the client's contract, as it
// already is between two single-model snapshots.
//
// All public methods are thread-safe; Process() may be called from many
// threads concurrently (each call fans its batch onto the pool).

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/run_control.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "serve/snapshot.h"

namespace hido {
namespace serve {

/// Tunables for ScoreService; the defaults serve inline with no deadline.
struct ScoreServiceOptions {
  /// Worker threads a batch fans out onto (1 = score inline).
  size_t num_threads = 1;
  /// Per-request wall-clock budget, measured from request arrival
  /// (MakeRequest) to the moment a worker picks the request up; expired
  /// requests answer `err deadline` instead of scoring. 0 disables.
  double request_deadline_seconds = 0.0;
  /// Clock for deadlines and latency measurement (null = Clock::Real();
  /// injectable so deadline expiry is testable without sleeps).
  const Clock* clock = nullptr;
};

/// One request in flight: the raw line plus its arrival time, from which
/// its deadline is measured.
struct ServeRequest {
  std::string line;              ///< the raw protocol line, no terminator
  double arrival_seconds = 0.0;  ///< clock reading at MakeRequest time
};

/// The transport-independent request handler behind `hido serve`: parses
/// protocol lines, scores against the current snapshot (RCU-swapped via
/// Publish), and answers admin requests. Thread-compatible: Process may
/// fan out internally, but callers drive one batch at a time.
class ScoreService {
 public:
  /// Instruments are registered on construction; see obs/metrics.h.
  explicit ScoreService(ScoreServiceOptions options = {});

  /// Publishes a new current snapshot and returns its assigned generation
  /// (1-based, monotonic). The replaced snapshot is released after the
  /// lock, by whichever holder drops it last.
  uint64_t Publish(std::shared_ptr<ModelSnapshot> snapshot)
      HIDO_LOCKS_EXCLUDED(mu_);

  /// Loads `path` and publishes it. The previous snapshot keeps serving
  /// until the new one is fully loaded and validated.
  Status PublishFromFile(const std::string& path);

  /// The snapshot new requests will score against (never null after the
  /// first Publish; null before it).
  std::shared_ptr<const ModelSnapshot> Current() const
      HIDO_LOCKS_EXCLUDED(mu_) {
    MutexLock lock(mu_);
    return snapshot_;
  }

  /// Generation of the latest published snapshot; 0 before any Publish.
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  /// True once a `shutdown` request was handled; the transport loop drains
  /// pending responses and exits.
  bool shutdown_requested() const {
    return shutdown_.load(std::memory_order_acquire);
  }

  /// Stamps a raw line with its arrival time.
  ServeRequest MakeRequest(std::string line) const;

  /// Handles one batch: responses[i] answers batch[i]. Score requests fan
  /// out over min(options.num_threads, batch size) pool workers; admin
  /// requests (swap/stats/...) are handled by whichever worker claims
  /// them. Responses are byte-deterministic for a fixed snapshot
  /// regardless of thread count.
  std::vector<std::string> Process(std::vector<ServeRequest> batch);

  /// Convenience wrapper: one fresh request through Process.
  std::string Handle(std::string line);

  /// The options this service was constructed with.
  const ScoreServiceOptions& options() const { return options_; }

 private:
  std::string HandleOne(const ServeRequest& request);
  std::string HandleScore(const std::string& args);
  std::string HandleInfo();
  std::string HandleStats();
  std::string HandleSwap(const std::string& args);

  const ScoreServiceOptions options_;
  const Clock* clock_;

  /// Guards the snapshot pointer, and serializes Publish so generation
  /// assignment and pointer installation cannot interleave between two
  /// concurrent swaps.
  mutable Mutex mu_;
  std::shared_ptr<const ModelSnapshot> snapshot_ HIDO_GUARDED_BY(mu_);
  std::atomic<uint64_t> generation_{0};
  std::atomic<bool> shutdown_{false};

  // Cached instrument references (stable for the registry's lifetime),
  // one per endpoint: serve.<endpoint>.requests + .latency_seconds.
  struct Endpoint {
    obs::Counter* requests;
    obs::Histogram* latency;
  };
  static Endpoint MakeEndpoint(const char* name);
  Endpoint score_;
  Endpoint ping_;
  Endpoint info_;
  Endpoint stats_;
  Endpoint swap_;
  Endpoint shutdown_endpoint_;
  obs::Counter* errors_;
  obs::Counter* timeouts_;
  obs::Counter* swaps_;
  obs::Gauge* generation_gauge_;
  obs::Histogram* batch_size_;
};

}  // namespace serve
}  // namespace hido

#endif  // HIDO_SERVE_SCORE_SERVICE_H_
