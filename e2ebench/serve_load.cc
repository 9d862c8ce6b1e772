#include "serve_load.h"

#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <string_view>
#include <thread>
#include <utility>

#include "common/run_control.h"
#include "common/socket.h"
#include "obs/metrics.h"
#include "serve/score_service.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "stats.h"

namespace e2e {

bool ReadReplyLines(int fd, std::string* buffer, bool* closed,
                    const std::function<void(std::string_view)>& on_line) {
  char chunk[64 * 1024];
  bool ok = true;
  while (true) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n == 0) {
      *closed = true;
      break;
    }
    if (n < 0) {
      // EAGAIN after a full chunk means drained: what was read is still
      // dispatched below.
      ok = errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
      break;
    }
    buffer->append(chunk, static_cast<size_t>(n));
    if (static_cast<size_t>(n) < sizeof(chunk)) break;
  }
  size_t begin = 0;
  for (size_t nl; (nl = buffer->find('\n', begin)) != std::string::npos;
       begin = nl + 1) {
    on_line(std::string_view(*buffer).substr(begin, nl - begin));
  }
  buffer->erase(0, begin);
  return ok;
}

namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr double kLateThreshold = 100e-6;  // generator lateness cut-off
constexpr double kDrainTimeout = 3.0;      // wait for owed replies
constexpr double kLimitSeconds = 2e-3;     // p99 latency limit of a rate
constexpr double kSwapEverySeconds = 1.0;  // swap period = tail window
constexpr uint64_t kWindowRequests = 1000;  // fewest requests a window holds
constexpr int kTimedSwaps = 20;  // swaps timed through the service
// Score requests the closed loop keeps in flight: 32 per connection, well
// under the server's batch cap and pending budget, so every poll round of
// the server has a batch to fan out.
constexpr size_t kClosedDepth = 64;

// One request awaiting its reply on a connection (replies come back in
// request order per connection).
struct Pending {
  bool swap = false;
  OpenLoopLog* log = nullptr;  // open-loop scores only
  uint64_t index = 0;          // schedule index within `log`; swap number
  size_t query = 0;            // index into ServeInputs::queries
};

class LoadClient {
 public:
  LoadClient(const ServeInputs& inputs, ServeOutcome* outcome)
      : inputs_(inputs), outcome_(outcome) {}

  bool Connect(int port) {
    for (Conn& conn : conns_) {
      hido::Result<hido::OwnedFd> fd = hido::ConnectTcp("127.0.0.1", port);
      if (!fd.ok() || !hido::SetNonBlocking(fd.value().get()).ok()) {
        return false;
      }
      conn.fd = std::move(fd.value());
    }
    return true;
  }

  // Sends the next query, on alternate connections. `log` (null in the
  // closed loop) records it as scheduled request `index`.
  void SendScore(OpenLoopLog* log, uint64_t index, double now) {
    const size_t query = next_query_++ % inputs_.queries.size();
    Conn& conn = conns_[next_query_ % 2];
    conn.out += inputs_.queries[query];
    conn.out += '\n';
    conn.pending.push_back({false, log, index, query});
    if (log != nullptr) log->Sent(index, now);
    ++outcome_->attempted;
  }

  // Alternates the served snapshot: swap k (1-based) installs b for odd k
  // and a for even k, so generation g serves snapshot (g - 1) % 2.
  void SendSwap() {
    ++swaps_sent_;
    Conn& conn = conns_[1];
    conn.out += "swap " + inputs_.snapshot_path[swaps_sent_ % 2] + "\n";
    conn.pending.push_back({true, nullptr, swaps_sent_, 0});
    ++outcome_->attempted;
  }

  void SendLine(const std::string& line) { conns_[0].out += line + "\n"; }

  size_t InFlight() const {
    return conns_[0].pending.size() + conns_[1].pending.size();
  }

  uint64_t scores_answered() const { return scores_answered_; }

  // Writes what the sockets accept, waits up to `wait` seconds for
  // replies, and dispatches every complete reply line. False on a broken
  // connection.
  bool Pump(double wait) {
    pollfd fds[2];
    for (size_t c = 0; c < 2; ++c) {
      if (!Flush(conns_[c])) return false;
      fds[c] = {conns_[c].fd.get(),
                static_cast<short>(POLLIN | (conns_[c].out.empty() ? 0 : POLLOUT)),
                0};
    }
    timespec timeout{};
    if (wait > 0.0) {
      timeout.tv_sec = static_cast<time_t>(wait);
      timeout.tv_nsec = static_cast<long>((wait - std::floor(wait)) * 1e9);
    }
    const int ready = ::ppoll(fds, 2, &timeout, nullptr);
    if (ready < 0) return errno == EINTR;
    for (size_t c = 0; c < 2; ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) != 0 &&
          !ReadReplies(c)) {
        return false;
      }
    }
    return true;
  }

  // Waits until every sent request is answered; false on timeout.
  bool Drain() {
    const double deadline = Now() + kDrainTimeout;
    while (InFlight() > 0) {
      const double left = deadline - Now();
      if (left <= 0.0 || !Pump(std::min(left, 0.01))) return false;
    }
    return true;
  }

  // Counts every unanswered request as failed.
  void AbandonInFlight() {
    for (Conn& conn : conns_) {
      for (size_t i = 0; i < conn.pending.size(); ++i) {
        Fail("missing reply");
      }
      conn.pending.clear();
    }
  }

  // Sends `shutdown` and waits for the server's `ok bye`.
  bool Shutdown() {
    SendLine("shutdown");
    shutdown_sent_ = true;
    const double deadline = Now() + kDrainTimeout;
    while (!bye_) {
      const double left = deadline - Now();
      if (left <= 0.0 || !Pump(std::min(left, 0.01))) return false;
    }
    return true;
  }

 private:
  struct Conn {
    hido::OwnedFd fd;
    std::string out;
    std::string in;
    std::deque<Pending> pending;
  };

  bool Flush(Conn& conn) {
    while (!conn.out.empty()) {
      const ssize_t n = ::send(conn.fd.get(), conn.out.data(), conn.out.size(),
                               MSG_NOSIGNAL);
      if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
      conn.out.erase(0, static_cast<size_t>(n));
    }
    return true;
  }

  bool ReadReplies(size_t c) {
    Conn& conn = conns_[c];
    bool closed = false;
    double now = 0.0;  // one reading, after the read, for all its replies
    const bool ok = ReadReplyLines(
        conn.fd.get(), &conn.in, &closed, [&](std::string_view line) {
          if (now == 0.0) now = Now();
          OnReply(conn, line, now);
        });
    return ok && (!closed || shutdown_sent_);
  }

  void OnReply(Conn& conn, std::string_view line, double now) {
    if (conn.pending.empty()) {
      if (shutdown_sent_ && line == "ok bye") {
        bye_ = true;
      } else {
        Fail("unexpected reply: " + std::string(line));
      }
      return;
    }
    const Pending p = conn.pending.front();
    conn.pending.pop_front();
    if (p.swap) {
      const std::string want = "ok swapped gen=" + std::to_string(p.index + 1);
      if (line.substr(0, want.size()) != want ||
          (line.size() > want.size() && line[want.size()] != ' ')) {
        Fail("swap: " + std::string(line));
      }
      return;
    }
    if (p.log != nullptr) p.log->Answered(p.index, now);
    ++scores_answered_;
    const size_t gen_at = line.rfind(" gen=");
    const uint64_t gen =
        gen_at == std::string_view::npos
            ? 0
            : std::strtoull(std::string(line.substr(gen_at + 5)).c_str(),
                            nullptr, 10);
    if (gen == 0 || line.substr(0, gen_at) !=
                        inputs_.expected[(gen - 1) % 2][p.query]) {
      Fail("score: " + std::string(line));
    }
  }

  void Fail(const std::string& what) {
    if (outcome_->failed++ == 0) outcome_->first_failure = what;
  }

  const ServeInputs& inputs_;
  ServeOutcome* outcome_;
  Conn conns_[2];
  size_t next_query_ = 0;
  uint64_t scores_answered_ = 0;
  uint64_t swaps_sent_ = 0;
  bool shutdown_sent_ = false;
  bool bye_ = false;
};

// Requests in flight beyond which a phase has a growing backlog: 20 ms of
// traffic (ten times the latency limit), kept under the server's
// per-connection pending budget so nothing is ever shed.
size_t BacklogCap(double rate) {
  return static_cast<size_t>(std::clamp(rate * 0.02, 256.0, 1500.0));
}

// Runs one fixed-rate phase and drains it. A fixed phase (`fixed`) swaps
// the snapshot in the middle of every second and takes its tail per
// window of whole seconds; it keeps its schedule whatever the backlog, as
// an open loop must. A ladder rung sends no swaps, takes its tail per 1000
// requests and ends early once a backlog builds.
// False when the client lost its connection or replies.
bool RunPhase(LoadClient& client, double rate, double seconds, bool fixed,
              PhaseStats* stats) {
  // A fixed phase's window is the fewest whole swap periods that hold
  // kWindowRequests requests, so every window holds the same swaps. Every
  // phase lasts at least one window.
  const double window_seconds =
      fixed ? kSwapEverySeconds *
                  std::ceil(static_cast<double>(kWindowRequests) /
                            (rate * kSwapEverySeconds))
            : static_cast<double>(kWindowRequests) / rate;
  seconds = std::max(seconds, window_seconds);
  const double start = Now() + 1e-3;
  OpenLoopLog log(start, rate, kLateThreshold);
  const uint64_t total = static_cast<uint64_t>(std::llround(rate * seconds));
  double next_swap_at = fixed ? start + kSwapEverySeconds / 2 : HUGE_VAL;
  uint64_t next = 0;
  bool ok = true;
  while (next < total) {
    const double now = Now();
    while (next < total && log.DueAt(next) <= now) {
      client.SendScore(&log, next, now);
      ++next;
    }
    if (now >= next_swap_at) {
      client.SendSwap();
      next_swap_at += kSwapEverySeconds;
    }
    if (client.InFlight() > BacklogCap(rate)) {
      stats->backlog = true;
      if (!fixed) break;
    }
    const double wait = next < total ? log.DueAt(next) - Now() : 0.0;
    if (!client.Pump(std::min(wait, next_swap_at - Now()))) {
      ok = false;
      break;
    }
  }
  if (ok && !client.Drain()) ok = false;
  if (!ok) client.AbandonInFlight();
  stats->latencies = log.latencies();
  stats->sent = log.sent();
  stats->late_fraction = log.LateFraction();
  const uint64_t window =
      static_cast<uint64_t>(std::llround(rate * window_seconds));
  stats->windowed_p50 = log.WindowedPercentile(50.0, window);
  stats->windowed_p99 = log.WindowedPercentile(99.0, window);
  return ok;
}

// Keeps kClosedDepth scores in flight for `seconds`, swapping the snapshot
// in the middle of every second, and records the median replies per second
// over the whole seconds. False when the client lost its connection or
// replies.
bool RunClosed(LoadClient& client, double seconds, ServeOutcome* outcome) {
  const double start = Now();
  double next_swap_at = start + kSwapEverySeconds / 2;
  double second_start = start;
  uint64_t answered_before = client.scores_answered();
  std::vector<double> rps;
  bool ok = true;
  while (true) {
    const double now = Now();
    if (now >= second_start + 1.0) {
      const double answered =
          static_cast<double>(client.scores_answered() - answered_before);
      rps.push_back(answered / (now - second_start));
      second_start = now;
      answered_before = client.scores_answered();
      if (now - start >= seconds) break;
    }
    while (client.InFlight() < kClosedDepth) client.SendScore(nullptr, 0, now);
    if (now >= next_swap_at) {
      client.SendSwap();
      next_swap_at += kSwapEverySeconds;
    }
    if (!client.Pump(std::min(second_start + 1.0, next_swap_at) - now)) {
      ok = false;
      break;
    }
  }
  if (ok && !client.Drain()) ok = false;
  if (!ok) client.AbandonInFlight();
  outcome->closed_rps = Median(rps);
  return ok;
}

hido::obs::Histogram::Snapshot Diff(const hido::obs::Histogram::Snapshot& after,
                                    const hido::obs::Histogram::Snapshot& before) {
  hido::obs::Histogram::Snapshot d = after;
  for (size_t i = 0; i < d.counts.size() && i < before.counts.size(); ++i) {
    d.counts[i] -= before.counts[i];
  }
  d.total_count -= before.total_count;
  d.sum -= before.sum;
  return d;
}

hido::obs::Histogram::Snapshot HistogramNamed(const std::string& name) {
  const hido::obs::MetricsSnapshot all =
      hido::obs::MetricsRegistry::Global().TakeSnapshot();
  for (const hido::obs::HistogramSample& h : all.histograms) {
    if (h.name == name) return h.snapshot;
  }
  return {};
}

// Joins the server thread on every exit path: asks it to stop, then waits.
class ServerThread {
 public:
  ServerThread(hido::serve::SocketServer& server, hido::StopToken& stop)
      : stop_(stop), thread_([&server] { server.Run(); }) {}
  ~ServerThread() {
    stop_.RequestCancel();
    thread_.join();
  }
  ServerThread(const ServerThread&) = delete;
  ServerThread& operator=(const ServerThread&) = delete;

 private:
  hido::StopToken& stop_;
  std::thread thread_;
};

}  // namespace

ServeOutcome RunServe(const ServePlan& plan, const ServeInputs& inputs) {
  ServeOutcome outcome;
  // Wake-ups at microsecond precision for the open-loop schedule.
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);

  hido::serve::ScoreServiceOptions service_options;
  service_options.num_threads = 2;
  hido::serve::ScoreService service(service_options);
  hido::Result<std::shared_ptr<hido::serve::ModelSnapshot>> first =
      hido::serve::LoadSnapshot(inputs.snapshot_path[0]);
  if (!first.ok()) {
    outcome.failed = outcome.attempted = 1;
    outcome.first_failure = first.status().ToString();
    return outcome;
  }
  service.Publish(std::move(first.value()));

  hido::StopToken stop;
  hido::serve::ServerOptions server_options;
  server_options.stop = &stop;
  hido::serve::SocketServer server(service, server_options);
  const hido::Status started = server.Start();
  if (!started.ok()) {
    outcome.failed = outcome.attempted = 1;
    outcome.first_failure = started.ToString();
    return outcome;
  }
  const ServerThread server_thread(server, stop);

  LoadClient client(inputs, &outcome);
  if (!client.Connect(server.port())) {
    outcome.failed = outcome.attempted = 1;
    outcome.first_failure = "connect failed";
    return outcome;
  }

  bool ok = plan.closed_seconds <= 0.0 ||
            RunClosed(client, plan.closed_seconds, &outcome);
  if (plan.low_seconds <= 0.0) {
    if (ok) client.Shutdown();
    return outcome;
  }
  ok = ok && RunPhase(client, plan.low_rps, plan.low_seconds, true,
                      &outcome.low);
  const auto latency_before = HistogramNamed("serve.score.latency_seconds");
  const auto batch_before = HistogramNamed("serve.batch.size");
  ok = ok && RunPhase(client, plan.high_rps, plan.high_seconds, true,
                      &outcome.high);
  const auto latency = Diff(HistogramNamed("serve.score.latency_seconds"),
                            latency_before);
  const auto batch = Diff(HistogramNamed("serve.batch.size"), batch_before);
  outcome.service_p50_seconds = hido::obs::HistogramQuantile(latency, 0.5);
  outcome.service_p99_seconds = hido::obs::HistogramQuantile(latency, 0.99);
  outcome.batch_size_mean =
      batch.total_count == 0
          ? 0.0
          : batch.sum / static_cast<double>(batch.total_count);

  // The fixed phases are the ladder's first rungs. The ladder climbs until
  // two rungs in a row miss the limit (one noisy rung does not end it) or
  // a backlog builds. When even the low rate misses the limit, max_rps is
  // the low rate scaled down by the overshoot, so it never reads 0.
  auto meets_limit = [&](const PhaseStats& phase) {
    return !phase.backlog && phase.windowed_p99 > 0.0 &&
           phase.windowed_p99 <= kLimitSeconds;
  };
  if (meets_limit(outcome.low)) {
    outcome.max_rps = plan.low_rps;
  } else if (outcome.low.windowed_p99 > 0.0) {
    outcome.max_rps =
        plan.low_rps * kLimitSeconds / outcome.low.windowed_p99;
  }
  if (meets_limit(outcome.high)) outcome.max_rps = plan.high_rps;
  int misses = 0;
  for (const double rate : plan.ladder) {
    if (!ok || misses == 2) break;
    PhaseStats rung;
    ok = RunPhase(client, rate, plan.rung_seconds, false, &rung);
    const bool within = ok && meets_limit(rung);
    if (rung.backlog) break;
    misses = within ? 0 : misses + 1;
    if (within) outcome.max_rps = rate;
  }
  if (ok) client.Shutdown();

  // Swap round trips through the service itself (load, parse, publish,
  // reply), alternating targets. On the socket, an idle loop's round trip
  // is mostly wake-up latency, which swings with the host's scheduling.
  for (int i = 0; i < kTimedSwaps; ++i) {
    const int target = i % 2;
    const double start = Now();
    const std::string reply =
        service.Handle("swap " + inputs.snapshot_path[target]);
    outcome.swap_seconds[target].push_back(Now() - start);
    ++outcome.attempted;
    if (reply.rfind("ok swapped ", 0) != 0 && outcome.failed++ == 0) {
      outcome.first_failure = "swap: " + reply;
    }
  }
  return outcome;
}

double MeasureHandleSeconds(const std::string& path,
                            const std::vector<std::string>& queries,
                            size_t batch_size, double budget_seconds) {
  hido::Result<std::shared_ptr<hido::serve::ModelSnapshot>> snapshot =
      hido::serve::LoadSnapshot(path);
  if (!snapshot.ok() || queries.empty()) return 0.0;
  hido::serve::ScoreServiceOptions options;
  options.num_threads = 2;
  hido::serve::ScoreService service(options);
  service.Publish(std::move(snapshot.value()));
  batch_size = std::max<size_t>(1, batch_size);
  double busy = 0.0;
  uint64_t handled = 0;
  size_t next = 0;
  const double end = Now() + budget_seconds;
  while (Now() < end) {
    std::vector<hido::serve::ServeRequest> batch;
    for (size_t i = 0; i < batch_size; ++i) {
      batch.push_back(service.MakeRequest(queries[next++ % queries.size()]));
    }
    const double start = Now();
    const std::vector<std::string> replies = service.Process(std::move(batch));
    busy += Now() - start;
    handled += replies.size();
  }
  return handled == 0 ? 0.0 : busy / static_cast<double>(handled);
}

double MeasureLoadSeconds(const std::string& path, double budget_seconds) {
  std::vector<double> samples;
  const double end = Now() + budget_seconds;
  while (samples.size() < 3 || Now() < end) {
    const double start = Now();
    const bool loaded = hido::serve::LoadSnapshot(path).ok();
    samples.push_back(Now() - start);
    if (!loaded) return 0.0;
  }
  return Median(samples);
}

}  // namespace e2e
