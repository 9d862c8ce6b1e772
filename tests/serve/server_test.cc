#include "serve/server.h"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/socket.h"
#include "common/string_util.h"
#include "core/detector.h"
#include "data/generators/synthetic.h"
#include "serve/snapshot.h"

namespace hido {
namespace serve {
namespace {

GeneratedDataset MakeData() {
  SubspaceOutlierConfig config;
  config.num_points = 300;
  config.num_dims = 8;
  config.num_groups = 3;
  config.num_outliers = 3;
  config.seed = 9;
  return GenerateSubspaceOutliers(config);
}

std::shared_ptr<ModelSnapshot> FitSnapshot(const GeneratedDataset& g,
                                           uint64_t seed = 3) {
  DetectorConfig config;
  config.phi = 5;
  config.target_dim = 2;
  config.num_projections = 8;
  config.evolution.restarts = 4;
  config.seed = seed;
  return std::make_shared<ModelSnapshot>(
      MakeSnapshot(OutlierDetector(config).Detect(g.data), g.data, seed));
}

std::string CsvRow(const Dataset& data, size_t row) {
  std::vector<std::string> fields;
  for (const double v : data.Row(row)) {
    fields.push_back(StrFormat("%.17g", v));
  }
  return Join(fields, ",");
}

// A server running on its own thread for the duration of a test, always
// shut down (via the protocol or the stop token) before teardown. An
// optional FaultInjector is installed on the server thread only, so the
// test's own client I/O through the same helpers stays undisturbed.
class ServerFixture {
 public:
  ServerFixture(ScoreService& service, const StopToken* stop = nullptr)
      : ServerFixture(service, MakeOptions(stop)) {}

  ServerFixture(ScoreService& service, ServerOptions options,
                FaultInjector* injector = nullptr)
      : server_(service, std::move(options)) {
    const Status started = server_.Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    thread_ = std::thread([this, injector] {
      FaultInjector::InstallOnThisThread(injector);
      run_status_ = server_.Run();
      FaultInjector::InstallOnThisThread(nullptr);
    });
  }

  ~ServerFixture() {
    if (thread_.joinable()) thread_.join();
    EXPECT_TRUE(run_status_.ok()) << run_status_.ToString();
  }

  int port() const { return server_.port(); }

  OwnedFd Connect() {
    Result<OwnedFd> client = ConnectTcp("127.0.0.1", server_.port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client.value());
  }

 private:
  static ServerOptions MakeOptions(const StopToken* stop) {
    ServerOptions options;
    options.stop = stop;
    options.poll_interval_ms = 20;
    return options;
  }

  SocketServer server_;
  std::thread thread_;
  Status run_status_;
};

std::string Request(int fd, const std::string& line, std::string* carry) {
  EXPECT_TRUE(WriteAll(fd, line + "\n").ok());
  Result<std::string> response = ReadLine(fd, carry);
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  return response.ok() ? response.value() : std::string();
}

// A zero batch would never answer a request and zero connections would
// answer every client `err busy`: Start refuses both before binding.
TEST(ServerTest, StartRejectsZeroBatchAndConnectionCaps) {
  ScoreService service;
  for (const bool zero_batch : {true, false}) {
    ServerOptions options;
    (zero_batch ? options.max_batch : options.max_connections) = 0;
    SocketServer server(service, options);
    const Status started = server.Start();
    EXPECT_EQ(started.code(), StatusCode::kInvalidArgument)
        << started.ToString();
  }
}

TEST(ServerTest, ServesScoresAndShutsDownOverTheProtocol) {
  const GeneratedDataset g = MakeData();
  ScoreService service;
  service.Publish(FitSnapshot(g));
  ServerFixture server(service);

  OwnedFd client = server.Connect();
  std::string carry;
  EXPECT_EQ(Request(client.get(), "ping", &carry), "ok pong");
  const std::string score =
      Request(client.get(), "score " + CsvRow(g.data, 0), &carry);
  EXPECT_EQ(score.substr(0, 9), "ok score=") << score;
  EXPECT_EQ(Request(client.get(), "shutdown", &carry), "ok bye");
  // ~ServerFixture joins: Run() must return once shutdown was answered.
}

TEST(ServerTest, PipelinedBatchAnswersInOrder) {
  const GeneratedDataset g = MakeData();
  ScoreServiceOptions options;
  options.num_threads = 4;
  ScoreService service(options);
  service.Publish(FitSnapshot(g));
  ServerFixture server(service);

  OwnedFd client = server.Connect();
  // One write carrying many requests: the loop must frame and answer all
  // of them, in order, whatever batching poll() happens to see.
  std::string burst;
  for (size_t row = 0; row < 40; ++row) {
    burst += "score " + CsvRow(g.data, row) + "\n";
  }
  ASSERT_TRUE(WriteAll(client.get(), burst).ok());

  std::string carry;
  std::vector<std::string> responses;
  for (size_t row = 0; row < 40; ++row) {
    Result<std::string> line = ReadLine(client.get(), &carry);
    ASSERT_TRUE(line.ok()) << line.status().ToString();
    responses.push_back(line.value());
  }
  // In-order and identical to the single-request answers.
  for (size_t row = 0; row < 40; ++row) {
    EXPECT_EQ(responses[row],
              service.Handle("score " + CsvRow(g.data, row)))
        << row;
  }
  ASSERT_TRUE(WriteAll(client.get(), "shutdown\n").ok());
  Result<std::string> bye = ReadLine(client.get(), &carry);
  ASSERT_TRUE(bye.ok());
}

TEST(ServerTest, BurstLargerThanMaxBatchDrainsWithoutNewBytes) {
  const GeneratedDataset g = MakeData();
  ScoreService service;
  service.Publish(FitSnapshot(g));
  StopToken stop;
  ServerOptions options;
  options.stop = &stop;
  options.poll_interval_ms = 20;
  options.max_batch = 4;  // force several rounds of buffered backlog
  {
    ServerFixture server(service, options);
    OwnedFd client = server.Connect();
    // One write, many more lines than max_batch: once the kernel buffer is
    // drained, POLLIN never fires again, so the loop must keep framing the
    // user-space backlog on its own or the tail of this burst hangs.
    std::string burst;
    for (size_t row = 0; row < 25; ++row) {
      burst += "score " + CsvRow(g.data, row) + "\n";
    }
    ASSERT_TRUE(WriteAll(client.get(), burst).ok());
    std::string carry;
    for (size_t row = 0; row < 25; ++row) {
      Result<std::string> line = ReadLine(client.get(), &carry);
      ASSERT_TRUE(line.ok()) << line.status().ToString();
      EXPECT_EQ(line.value(),
                service.Handle("score " + CsvRow(g.data, row)))
          << row;
    }
    stop.RequestCancel();
  }
}

TEST(ServerTest, OverlongLineErrorArrivesAfterEarlierResponses) {
  const GeneratedDataset g = MakeData();
  ScoreService service;
  service.Publish(FitSnapshot(g));
  StopToken stop;
  ServerOptions options;
  options.stop = &stop;
  options.poll_interval_ms = 20;
  options.max_line_bytes = 256;  // small enough to overflow in one read
  {
    ServerFixture server(service, options);
    OwnedFd client = server.Connect();
    // Two well-formed requests followed by an unterminated flood, all in
    // one write: the client is owed both answers *before* the error line.
    const std::string junk(1024, 'x');
    ASSERT_TRUE(WriteAll(client.get(), "ping\nping\n" + junk).ok());
    std::string carry;
    Result<std::string> first = ReadLine(client.get(), &carry);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    EXPECT_EQ(first.value(), "ok pong");
    Result<std::string> second = ReadLine(client.get(), &carry);
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    EXPECT_EQ(second.value(), "ok pong");
    Result<std::string> error = ReadLine(client.get(), &carry);
    ASSERT_TRUE(error.ok()) << error.status().ToString();
    EXPECT_EQ(error.value(), "err line too long");
    stop.RequestCancel();
  }
}

TEST(ServerTest, SwapMidStreamLosesNoRequests) {
  const GeneratedDataset g = MakeData();
  ScoreServiceOptions options;
  options.num_threads = 2;
  ScoreService service(options);
  service.Publish(FitSnapshot(g, 3));
  ServerFixture server(service);

  const std::string path = ::testing::TempDir() + "/server_swap.hido";
  ASSERT_TRUE(SaveSnapshot(*FitSnapshot(g, 7), path).ok());

  OwnedFd scorer = server.Connect();
  OwnedFd admin = server.Connect();
  std::string scorer_carry;
  std::string admin_carry;
  size_t failures = 0;
  bool saw_new_generation = false;
  for (size_t i = 0; i < 120; ++i) {
    if (i == 40) {
      const std::string swapped =
          Request(admin.get(), "swap " + path, &admin_carry);
      EXPECT_EQ(swapped.substr(0, 10), "ok swapped") << swapped;
    }
    const std::string response = Request(
        scorer.get(), "score " + CsvRow(g.data, i % g.data.num_rows()),
        &scorer_carry);
    if (response.compare(0, 9, "ok score=") != 0) ++failures;
    if (response.find("gen=2") != std::string::npos) {
      saw_new_generation = true;
    }
  }
  EXPECT_EQ(failures, 0u);
  EXPECT_TRUE(saw_new_generation);
  std::remove(path.c_str());

  ASSERT_TRUE(WriteAll(admin.get(), "shutdown\n").ok());
  Result<std::string> bye = ReadLine(admin.get(), &admin_carry);
  ASSERT_TRUE(bye.ok());
}

TEST(ServerTest, StopTokenEndsTheLoop) {
  const GeneratedDataset g = MakeData();
  ScoreService service;
  service.Publish(FitSnapshot(g));
  StopToken stop;
  {
    ServerFixture server(service, &stop);
    OwnedFd client = server.Connect();
    std::string carry;
    EXPECT_EQ(Request(client.get(), "ping", &carry), "ok pong");
    stop.RequestCancel();
    // ~ServerFixture joins: Run() must notice the token and return OK.
  }
}

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name).Value();
}

// Polls (with a real-time bound) until the named counter reaches `target`;
// FakeClock-driven evictions land on the server's next poll round, so the
// test must wait for the round, not for wall-clock time.
bool WaitForCounter(const char* name, uint64_t target) {
  for (int i = 0; i < 500; ++i) {
    if (CounterValue(name) >= target) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return CounterValue(name) >= target;
}

// Reads until EOF (or an error), returning everything seen. Used by shed
// and eviction tests where the server closes the connection.
std::string ReadUntilClosed(int fd) {
  std::string all;
  std::string carry;
  while (true) {
    Result<std::string> line = ReadLine(fd, &carry);
    if (!line.ok()) break;
    all += line.value();
    all += '\n';
  }
  return all;
}

TEST(ServerTest, AcceptShedBeyondMaxConnectionsAnswersErrBusy) {
  const GeneratedDataset g = MakeData();
  ScoreService service;
  service.Publish(FitSnapshot(g));
  StopToken stop;
  ServerOptions options;
  options.stop = &stop;
  options.poll_interval_ms = 20;
  options.max_connections = 2;
  const uint64_t shed_before = CounterValue("serve.shed.connections");
  {
    ServerFixture server(service, options);
    OwnedFd first = server.Connect();
    OwnedFd second = server.Connect();
    std::string carry1;
    std::string carry2;
    // Round-trip both so they are accepted before the third knocks.
    EXPECT_EQ(Request(first.get(), "ping", &carry1), "ok pong");
    EXPECT_EQ(Request(second.get(), "ping", &carry2), "ok pong");

    OwnedFd third = server.Connect();
    EXPECT_EQ(ReadUntilClosed(third.get()), "err busy\n");
    EXPECT_EQ(CounterValue("serve.shed.connections"), shed_before + 1);
    // The admitted connections are untouched by the shed...
    EXPECT_EQ(Request(first.get(), "ping", &carry1), "ok pong");
    EXPECT_EQ(Request(second.get(), "ping", &carry2), "ok pong");
    // ...and the gauge reports exactly the two of them.
    EXPECT_EQ(
        obs::MetricsRegistry::Global().GetGauge("serve.conn.active").Value(),
        2);

    // A freed slot re-admits: close one, wait for the server to reap it
    // (the gauge dropping is the signal), and a newcomer gets served.
    first.Reset();
    obs::Gauge& active =
        obs::MetricsRegistry::Global().GetGauge("serve.conn.active");
    for (int i = 0; i < 500 && active.Value() > 1; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_EQ(active.Value(), 1);
    OwnedFd fourth = server.Connect();
    std::string carry4;
    EXPECT_EQ(Request(fourth.get(), "ping", &carry4), "ok pong");
    stop.RequestCancel();
  }
}

TEST(ServerTest, OverloadShedsNewestRequestsWithErrOverloaded) {
  const GeneratedDataset g = MakeData();
  ScoreService service;
  service.Publish(FitSnapshot(g));
  StopToken stop;
  ServerOptions options;
  options.stop = &stop;
  options.poll_interval_ms = 20;
  options.max_batch = 2;    // several framing rounds per burst
  options.max_pending = 3;  // backlog budget beyond the current batch
  const uint64_t shed_before = CounterValue("serve.shed.requests");
  {
    ServerFixture server(service, options);
    OwnedFd client = server.Connect();
    std::string carry;
    // Settle the connection so the burst is the only traffic in flight.
    EXPECT_EQ(Request(client.get(), "ping", &carry), "ok pong");

    // One send, ten requests: the first round frames 2 (max_batch) and
    // sheds the newest 5 of the remaining 8 (max_pending 3). The kept
    // five answer first — in order — then the shed tail's errors.
    std::string burst;
    for (int i = 0; i < 10; ++i) burst += "ping\n";
    ASSERT_TRUE(WriteAll(client.get(), burst).ok());
    std::vector<std::string> responses;
    for (int i = 0; i < 10; ++i) {
      Result<std::string> line = ReadLine(client.get(), &carry);
      ASSERT_TRUE(line.ok()) << line.status().ToString();
      responses.push_back(line.value());
    }
    for (int i = 0; i < 5; ++i) EXPECT_EQ(responses[i], "ok pong") << i;
    for (int i = 5; i < 10; ++i) {
      EXPECT_EQ(responses[i], "err overloaded") << i;
    }
    EXPECT_EQ(CounterValue("serve.shed.requests"), shed_before + 5);

    // The connection survives shedding: later requests are answered.
    EXPECT_EQ(Request(client.get(), "ping", &carry), "ok pong");
    stop.RequestCancel();
  }
}

TEST(ServerTest, SlowClientEvictedWhenOutBufferExceedsLimit) {
  const GeneratedDataset g = MakeData();
  ScoreService service;
  service.Publish(FitSnapshot(g));
  StopToken stop;
  ServerOptions options;
  options.stop = &stop;
  options.poll_interval_ms = 20;
  options.max_out_bytes = 16;  // three pong lines overflow it
  // Every server-side write hits EAGAIN, as if the client's receive
  // window never opens: responses pile up in `out` deterministically.
  Result<FaultInjector> injector = FaultInjector::Parse("write@1..=EAGAIN");
  ASSERT_TRUE(injector.ok());
  const uint64_t evictions_before = CounterValue("serve.evictions");
  {
    ServerFixture server(service, options, &injector.value());
    OwnedFd client = server.Connect();
    ASSERT_TRUE(WriteAll(client.get(), "ping\nping\nping\n").ok());
    // 3 * "ok pong\n" = 24 buffered bytes > 16: the client is evicted.
    EXPECT_TRUE(WaitForCounter("serve.evictions", evictions_before + 1));
    EXPECT_EQ(CounterValue("serve.evictions"), evictions_before + 1);
    // The eviction notice is best-effort and the write path is dead, so
    // the client simply observes the close.
    EXPECT_EQ(ReadUntilClosed(client.get()), "");
    stop.RequestCancel();
  }
}

TEST(ServerTest, StalledWriterEvictedAfterWriteStallTimeout) {
  const GeneratedDataset g = MakeData();
  ScoreService service;
  service.Publish(FitSnapshot(g));
  StopToken stop;
  FakeClock clock(0.0);
  ServerOptions options;
  options.stop = &stop;
  options.poll_interval_ms = 20;
  options.write_stall_ms = 1000;
  options.clock = &clock;
  Result<FaultInjector> injector = FaultInjector::Parse("write@1..=EAGAIN");
  ASSERT_TRUE(injector.ok());
  const uint64_t evictions_before = CounterValue("serve.evictions");
  {
    ServerFixture server(service, options, &injector.value());
    OwnedFd client = server.Connect();
    ASSERT_TRUE(WriteAll(client.get(), "ping\n").ok());
    // The response is queued but unwritable; well under max_out_bytes, so
    // only the stall clock can evict. Step fake time until the server's
    // next round observes a stall older than write_stall_ms.
    for (int i = 0; i < 500; ++i) {
      if (CounterValue("serve.evictions") > evictions_before) break;
      clock.Advance(10.0);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(CounterValue("serve.evictions"), evictions_before + 1);
    EXPECT_EQ(ReadUntilClosed(client.get()), "");
    stop.RequestCancel();
  }
}

TEST(ServerTest, IdleConnectionEvictedAfterTimeoutWithNotice) {
  const GeneratedDataset g = MakeData();
  ScoreService service;
  service.Publish(FitSnapshot(g));
  StopToken stop;
  FakeClock clock(0.0);
  ServerOptions options;
  options.stop = &stop;
  options.poll_interval_ms = 20;
  options.idle_timeout_ms = 500;
  options.clock = &clock;
  const uint64_t evictions_before = CounterValue("serve.evictions");
  {
    ServerFixture server(service, options);
    OwnedFd client = server.Connect();
    std::string carry;
    EXPECT_EQ(Request(client.get(), "ping", &carry), "ok pong");
    clock.Advance(10.0);  // well past the 500ms idle budget
    EXPECT_TRUE(WaitForCounter("serve.evictions", evictions_before + 1));
    // Writes are healthy here, so the documented notice is delivered
    // before the close.
    Result<std::string> notice = ReadLine(client.get(), &carry);
    ASSERT_TRUE(notice.ok()) << notice.status().ToString();
    EXPECT_EQ(notice.value(), "err idle timeout");
    EXPECT_EQ(ReadUntilClosed(client.get()), "");
    stop.RequestCancel();
  }
}

TEST(ServerTest, OverlongUnframedLineIsRejected) {
  const GeneratedDataset g = MakeData();
  ScoreService service;
  service.Publish(FitSnapshot(g));
  StopToken stop;  // server_test owns shutdown here: no protocol shutdown
  {
    ServerFixture server(service, &stop);
    OwnedFd client = server.Connect();
    // Default max_line_bytes is 1 MiB; stream 2 MiB without a newline.
    const std::string junk(64 * 1024, 'x');
    for (int i = 0; i < 32; ++i) {
      if (!WriteAll(client.get(), junk).ok()) break;  // server may close
    }
    std::string carry;
    Result<std::string> response = ReadLine(client.get(), &carry);
    if (response.ok()) {
      EXPECT_EQ(response.value(), "err line too long");
    }  // else: the server already closed the connection, also acceptable
    stop.RequestCancel();
  }
}

}  // namespace
}  // namespace serve
}  // namespace hido
