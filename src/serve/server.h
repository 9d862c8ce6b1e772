#ifndef HIDO_SERVE_SERVER_H_
#define HIDO_SERVE_SERVER_H_

// The line-protocol TCP front end for ScoreService: a single-threaded
// poll(2) event loop that accepts connections, frames '\n'-delimited
// requests, and batches everything readable in one poll round into a
// single ScoreService::Process call (which fans the batch onto the shared
// ThreadPool). Responses are written back in request order per
// connection, buffered through non-blocking writes so one slow client
// never stalls the loop.
//
// Shutdown: the loop exits when (a) a client sends `shutdown` (the `ok
// bye` response is still flushed), or (b) the caller's StopToken fires
// (SIGINT / --deadline), checked once per poll round.

#include <cstddef>
#include <string>
#include <vector>

#include "common/run_control.h"
#include "common/socket.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "serve/score_service.h"

namespace hido {
namespace serve {

/// Knobs for one SocketServer; the overload limits are documented in
/// DESIGN.md's "Overload & fault model" subsection.
struct ServerOptions {
  /// Numeric IPv4 address to bind.
  std::string host = "127.0.0.1";
  /// 0 asks the kernel for a free port; see SocketServer::port().
  int port = 0;
  /// Largest request batch handed to ScoreService per poll round; readable
  /// lines beyond the cap stay buffered for the next round.
  size_t max_batch = 256;
  /// A connection whose pending line exceeds this is answered with an
  /// error and closed (protects the loop from unframed floods).
  size_t max_line_bytes = 1 << 20;
  /// Poll timeout; bounds how stale a StopToken check can get when the
  /// server is idle.
  int poll_interval_ms = 200;
  /// Admission limit: a client accepted while this many connections are
  /// already live is answered `err busy` and closed immediately
  /// (`serve.shed.connections`).
  size_t max_connections = 256;
  /// A connection whose response backlog (`out`) exceeds this many bytes
  /// is evicted: the backlog is dropped, a best-effort `err evicted` line
  /// is sent, and the socket closes (`serve.evictions`).
  size_t max_out_bytes = 4 << 20;
  /// A connection with pending output that accepts no bytes for this long
  /// is evicted like an overflowing one. 0 disables the stall check.
  int write_stall_ms = 5000;
  /// A connection with no inbound bytes and nothing owed for this long is
  /// closed with `err idle timeout` (also under `serve.evictions`).
  /// 0 (the default) disables idle eviction.
  int idle_timeout_ms = 0;
  /// Complete buffered lines a connection may hold beyond the current
  /// batch; newest lines over the budget are shed with `err overloaded`
  /// (`serve.shed.requests`) instead of growing the queue without bound.
  size_t max_pending = 1024;
  /// Clock for stall/idle measurement (nullable: the real clock). Tests
  /// inject a FakeClock to step timeouts deterministically.
  const Clock* clock = nullptr;
  /// External stop (nullable): fires -> the loop drains and returns.
  const StopToken* stop = nullptr;
};

/// One server bound to one ScoreService. Not thread-safe: Start and Run
/// are called from the owning thread; concurrency happens inside
/// ScoreService::Process.
class SocketServer {
 public:
  /// Binds nothing yet; `service` must outlive the server.
  SocketServer(ScoreService& service, ServerOptions options);

  /// Binds and listens. After an OK return, port() is the live port.
  /// InvalidArgument for a zero max_batch or max_connections, or a port
  /// outside [0, 65535].
  Status Start();

  /// The bound port (kernel-assigned when options.port was 0).
  int port() const { return listener_.port; }

  /// Serves until shutdown/stop; returns the reason serving ended.
  /// Requires Start() to have succeeded.
  Status Run();

 private:
  struct Connection {
    OwnedFd fd;
    std::string in;    ///< bytes read, not yet framed into lines
    std::string out;   ///< responses awaiting a writable socket
    bool closing = false;  ///< drain `out`, then close
    /// An overlong unframed line was seen; the error line is queued only
    /// after the responses to requests framed before it, so the client
    /// never sees the error ahead of answers it is still owed.
    bool overflowed = false;
    /// `err overloaded` lines owed for shed requests. While non-zero the
    /// connection is not read (socket-level backpressure), and the errors
    /// are queued only once every kept request has been answered — so the
    /// shed tail's errors land exactly where the requests did.
    size_t overload_owed = 0;
    /// When the last inbound byte arrived (idle-timeout clock).
    double last_activity_seconds = 0.0;
    /// When `out` was first seen pending with no write progress since;
    /// negative while writes are flowing (write-stall clock).
    double stall_since_seconds = -1.0;
  };

  /// Frames complete lines out of conn->in (each becomes one request
  /// tagged with the connection index), then sheds the newest buffered
  /// lines beyond options_.max_pending as owed `err overloaded` replies.
  void FrameLines(size_t conn_index, std::vector<size_t>* request_conns,
                  std::vector<ServeRequest>* requests);
  /// Flushes as much of conn->out as the socket accepts; write progress
  /// resets the connection's stall clock.
  Status FlushWrites(Connection* conn);
  /// Drops the connection with a best-effort `err <reason>` notice and
  /// counts it under serve.evictions.
  void Evict(Connection* conn, const char* reason);
  /// Applies the out-buffer, write-stall, and idle limits to every live
  /// connection; runs once per poll round.
  void EvictOverLimits(double now_seconds);
  /// Live (fd-valid) connections.
  size_t CountActive() const;
  /// Closes every connection and zeroes serve.conn.active; the loop's exit
  /// paths call this so post-run telemetry reflects a stopped server.
  void CloseAllConnections();

  ScoreService& service_;
  const ServerOptions options_;
  const Clock* clock_;
  TcpListener listener_;
  std::vector<Connection> connections_;
  /// Transient accept/SetNonBlocking failures (ECONNABORTED, EMFILE, ...);
  /// these are counted and survived, never fatal to the loop.
  obs::Counter* accept_errors_;
  obs::Counter* shed_connections_;  ///< serve.shed.connections
  obs::Counter* shed_requests_;     ///< serve.shed.requests
  obs::Counter* evictions_;         ///< serve.evictions
  obs::Gauge* conn_active_;         ///< serve.conn.active
};

}  // namespace serve
}  // namespace hido

#endif  // HIDO_SERVE_SERVER_H_
