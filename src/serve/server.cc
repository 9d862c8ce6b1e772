#include "serve/server.h"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <utility>

#include "common/logging.h"

namespace hido {
namespace serve {

SocketServer::SocketServer(ScoreService& service, ServerOptions options)
    : service_(service),
      options_(std::move(options)),
      clock_(options_.clock != nullptr ? options_.clock : &Clock::Real()),
      accept_errors_(
          &obs::MetricsRegistry::Global().GetCounter("serve.accept.errors")),
      shed_connections_(&obs::MetricsRegistry::Global().GetCounter(
          "serve.shed.connections")),
      shed_requests_(&obs::MetricsRegistry::Global().GetCounter(
          "serve.shed.requests")),
      evictions_(
          &obs::MetricsRegistry::Global().GetCounter("serve.evictions")),
      conn_active_(
          &obs::MetricsRegistry::Global().GetGauge("serve.conn.active")) {}

Status SocketServer::Start() {
  // A zero batch would never hand a request to the service, and zero
  // connections would answer every client `err busy`.
  if (options_.max_batch == 0) {
    return Status::InvalidArgument("max_batch must be at least 1");
  }
  if (options_.max_connections == 0) {
    return Status::InvalidArgument("max_connections must be at least 1");
  }
  Result<TcpListener> listener = ListenTcp(options_.host, options_.port);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(listener.value());
  return SetNonBlocking(listener_.fd.get());
}

void SocketServer::FrameLines(size_t conn_index,
                              std::vector<size_t>* request_conns,
                              std::vector<ServeRequest>* requests) {
  Connection& conn = connections_[conn_index];
  size_t start = 0;
  while (request_conns->size() < options_.max_batch) {
    const size_t eol = conn.in.find('\n', start);
    if (eol == std::string::npos) break;
    std::string line = conn.in.substr(start, eol - start);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    start = eol + 1;
    request_conns->push_back(conn_index);
    requests->push_back(service_.MakeRequest(std::move(line)));
  }
  conn.in.erase(0, start);
  // Only the unterminated tail counts against the line limit: complete
  // lines left over from the max_batch cap are legitimate backlog, not a
  // protocol violation.
  const size_t last_eol = conn.in.rfind('\n');
  const size_t tail = last_eol == std::string::npos
                          ? conn.in.size()
                          : conn.in.size() - last_eol - 1;
  if (tail > options_.max_line_bytes) {
    // The error line is queued later (after this round's responses) so the
    // client still receives answers to requests it sent before the flood.
    conn.overflowed = true;
    conn.in.clear();
    conn.closing = true;
    return;
  }
  // Overload budget: complete lines buffered beyond max_pending are shed
  // newest-first, so the oldest requests (the ones the client has waited
  // longest on) keep their slot. Each shed line is owed an
  // `err overloaded` reply, queued only after every kept line has been
  // answered; reads stay suppressed until then, so per-connection response
  // order is preserved.
  size_t backlog = 0;
  for (size_t eol = conn.in.find('\n'); eol != std::string::npos;
       eol = conn.in.find('\n', eol + 1)) {
    ++backlog;
  }
  while (backlog > options_.max_pending) {
    const size_t last_eol = conn.in.rfind('\n');
    const size_t prev_eol =
        last_eol == 0 ? std::string::npos : conn.in.rfind('\n', last_eol - 1);
    const size_t line_begin = prev_eol == std::string::npos ? 0 : prev_eol + 1;
    conn.in.erase(line_begin, last_eol - line_begin + 1);
    ++conn.overload_owed;
    shed_requests_->Add(1);
    --backlog;
  }
}

Status SocketServer::FlushWrites(Connection* conn) {
  if (conn->out.empty()) return Status::Ok();
  Result<size_t> written = WriteSome(conn->fd.get(), conn->out);
  if (!written.ok()) return written.status();
  conn->out.erase(0, written.value());
  // Any progress re-arms the stall clock; EvictOverLimits restarts it on
  // the next round if output is still pending.
  if (written.value() > 0) conn->stall_since_seconds = -1.0;
  return Status::Ok();
}

void SocketServer::Evict(Connection* conn, const char* reason) {
  // The socket is usually backed up at this point: the notice is best
  // effort, and whatever the kernel refuses is simply lost with the fd.
  WriteSome(conn->fd.get(), std::string("err ") + reason + "\n");
  conn->fd.Reset();
  conn->in.clear();
  conn->out.clear();
  conn->overload_owed = 0;
  evictions_->Add(1);
}

void SocketServer::EvictOverLimits(double now_seconds) {
  for (Connection& conn : connections_) {
    if (!conn.fd.valid()) continue;
    if (conn.out.empty()) {
      conn.stall_since_seconds = -1.0;
    } else if (conn.stall_since_seconds < 0.0) {
      conn.stall_since_seconds = now_seconds;
    }
    if (conn.out.size() > options_.max_out_bytes) {
      Evict(&conn, "evicted");
      continue;
    }
    if (options_.write_stall_ms > 0 && conn.stall_since_seconds >= 0.0 &&
        (now_seconds - conn.stall_since_seconds) * 1000.0 >=
            static_cast<double>(options_.write_stall_ms)) {
      Evict(&conn, "evicted");
      continue;
    }
    if (options_.idle_timeout_ms > 0 && conn.out.empty() && !conn.closing &&
        conn.overload_owed == 0 &&
        (now_seconds - conn.last_activity_seconds) * 1000.0 >=
            static_cast<double>(options_.idle_timeout_ms)) {
      Evict(&conn, "idle timeout");
    }
  }
}

size_t SocketServer::CountActive() const {
  size_t active = 0;
  for (const Connection& conn : connections_) {
    if (conn.fd.valid()) ++active;
  }
  return active;
}

void SocketServer::CloseAllConnections() {
  for (Connection& conn : connections_) {
    conn.fd.Reset();
    conn.in.clear();
    conn.out.clear();
    conn.overload_owed = 0;
  }
  conn_active_->Set(0);
}

Status SocketServer::Run() {
  if (!listener_.fd.valid()) {
    return Status::InvalidArgument("server not started");
  }
  bool draining = false;  // shutdown seen: flush replies, then exit
  while (true) {
    if (options_.stop != nullptr && options_.stop->ShouldStop()) {
      CloseAllConnections();
      return Status::Ok();
    }
    if (draining) {
      const bool pending = std::any_of(
          connections_.begin(), connections_.end(),
          [](const Connection& conn) {
            return conn.fd.valid() && !conn.out.empty();
          });
      if (!pending) {
        CloseAllConnections();
        return Status::Ok();
      }
    }

    // Overload limits first, so a connection over its budget neither polls
    // nor frames this round. Runs while draining too: a stalled client
    // must not be able to hold the drain open forever.
    EvictOverLimits(clock_->NowSeconds());
    conn_active_->Set(static_cast<int64_t>(CountActive()));

    // Frame lines left buffered by earlier rounds before polling: after a
    // burst larger than max_batch, the kernel buffer is empty, so POLLIN
    // alone would never surface the excess and the client would hang.
    std::vector<size_t> request_conns;
    std::vector<ServeRequest> requests;
    if (!draining) {
      for (size_t i = 0; i < connections_.size(); ++i) {
        Connection& conn = connections_[i];
        if (conn.fd.valid() && conn.in.find('\n') != std::string::npos) {
          FrameLines(i, &request_conns, &requests);
        }
      }
    }
    std::vector<char> inflight(connections_.size(), 0);
    for (const size_t conn_index : request_conns) inflight[conn_index] = 1;

    // While draining, the listener leaves the poll set: accepts are
    // refused anyway, and a knocking client would otherwise make poll()
    // return instantly every iteration (a busy-spin until drained).
    const bool accepting = !draining;
    std::vector<pollfd> fds;
    if (accepting) fds.push_back({listener_.fd.get(), POLLIN, 0});
    const size_t conn_base = fds.size();
    std::vector<size_t> fd_conn;  // fds[conn_base + i] -> fd_conn[i]
    for (size_t i = 0; i < connections_.size(); ++i) {
      Connection& conn = connections_[i];
      if (!conn.fd.valid()) continue;
      short events = 0;
      // While `err overloaded` replies are owed, reading stops: TCP
      // backpressure keeps newer requests from leapfrogging the errors.
      if (!conn.closing && conn.overload_owed == 0) events |= POLLIN;
      if (!conn.out.empty()) events |= POLLOUT;
      if (events == 0 && conn.closing && inflight[i] == 0 &&
          conn.overload_owed == 0 &&
          conn.in.find('\n') == std::string::npos && !conn.overflowed) {
        conn.fd.Reset();  // everything owed was sent: close now
        continue;
      }
      // events may be 0 for a closing connection that still has framed or
      // frameable requests; keep the fd so its responses can be queued.
      fds.push_back({conn.fd.get(), events, 0});
      fd_conn.push_back(i);
    }

    // Don't block while framed requests are waiting to be processed.
    const int timeout = requests.empty() ? options_.poll_interval_ms : 0;
    const int ready = ::poll(fds.data(), fds.size(), timeout);
    if (ready < 0 && errno != EINTR) {
      return Status::IoError("poll failed");
    }
    if (ready <= 0 && requests.empty()) continue;

    if (ready > 0 && accepting) {
      // The listener itself failing is the one fatal accept-side error.
      if ((fds[0].revents & (POLLERR | POLLNVAL)) != 0) {
        return Status::IoError("listener socket failed");
      }
      if ((fds[0].revents & POLLIN) != 0) {
        while (true) {
          Result<OwnedFd> client = AcceptClient(listener_.fd.get());
          if (!client.ok()) {
            // Per-client conditions (ECONNABORTED mid-handshake, EMFILE
            // under fd pressure, ...) must not take down every established
            // connection; count it and retry on the next poll round.
            accept_errors_->Add(1);
            HIDO_LOG_WARNING("serve: accept failed: %s",
                             client.status().ToString().c_str());
            break;
          }
          if (!client.value().valid()) break;  // accept queue drained
          if (CountActive() >= options_.max_connections) {
            // Admission control: shed at accept time with the documented
            // error so the client fails fast instead of queueing blind.
            // The notice is best-effort on the still-blocking fd.
            WriteSome(client.value().get(), "err busy\n");
            shed_connections_->Add(1);
            continue;  // OwnedFd closes the client; keep draining accepts
          }
          const Status status = SetNonBlocking(client.value().get());
          if (!status.ok()) {
            accept_errors_->Add(1);
            HIDO_LOG_WARNING("serve: rejecting client: %s",
                             status.ToString().c_str());
            continue;  // OwnedFd closes the client; keep accepting
          }
          Connection conn;
          conn.fd = std::move(client.value());
          conn.last_activity_seconds = clock_->NowSeconds();
          // Reuse a closed slot so long-lived servers don't grow the table.
          auto slot = std::find_if(
              connections_.begin(), connections_.end(),
              [](const Connection& c) { return !c.fd.valid(); });
          if (slot == connections_.end()) {
            connections_.push_back(std::move(conn));
          } else {
            *slot = std::move(conn);
          }
        }
      }
    }

    if (ready > 0) {
      for (size_t fd_index = conn_base; fd_index < fds.size(); ++fd_index) {
        Connection& conn = connections_[fd_conn[fd_index - conn_base]];
        const short revents = fds[fd_index].revents;
        if ((revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
            (revents & POLLIN) == 0) {
          conn.fd.Reset();
          continue;
        }
        if ((revents & POLLIN) != 0) {
          Result<ReadOutcome> outcome =
              ReadAvailable(conn.fd.get(), &conn.in);
          if (!outcome.ok() || outcome.value().bytes == 0) {
            // Error or orderly EOF: answer what was already framed (and
            // any complete buffered lines), but read no further.
            conn.closing = true;
          } else if (outcome.value().bytes > 0) {
            conn.last_activity_seconds = clock_->NowSeconds();
          }
          FrameLines(fd_conn[fd_index - conn_base], &request_conns,
                     &requests);
        }
        if ((revents & POLLOUT) != 0) {
          if (!FlushWrites(&conn).ok()) conn.fd.Reset();
        }
      }
    }

    if (!requests.empty()) {
      std::vector<std::string> responses =
          service_.Process(std::move(requests));
      for (size_t i = 0; i < responses.size(); ++i) {
        Connection& conn = connections_[request_conns[i]];
        if (!conn.fd.valid()) continue;  // client vanished mid-batch
        conn.out += responses[i];
        conn.out += '\n';
      }
      if (service_.shutdown_requested()) draining = true;
    }
    // Deferred protocol errors go out only after this round's responses,
    // preserving per-connection response order.
    for (Connection& conn : connections_) {
      if (conn.overflowed && conn.fd.valid()) {
        conn.out += "err line too long\n";
        conn.overflowed = false;
      }
      // Owed overload errors flush once the kept backlog is exhausted:
      // every line framed so far was answered above, and no complete line
      // remains buffered, so the shed tail's errors land in exactly the
      // position its requests held.
      if (conn.overload_owed > 0 && conn.fd.valid() &&
          conn.in.find('\n') == std::string::npos) {
        for (; conn.overload_owed > 0; --conn.overload_owed) {
          conn.out += "err overloaded\n";
        }
      }
    }
    if (!request_conns.empty()) {
      // Opportunistic flush: most clients are waiting on these bytes, and
      // the sockets are almost always writable.
      for (const size_t conn_index : request_conns) {
        Connection& conn = connections_[conn_index];
        if (conn.fd.valid() && !FlushWrites(&conn).ok()) conn.fd.Reset();
      }
    }
  }
}

}  // namespace serve
}  // namespace hido
