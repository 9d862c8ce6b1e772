#include "common/socket.h"

#include <string>
#include <thread>
#include <utility>

#include <gtest/gtest.h>

namespace hido {
namespace {

TEST(SocketTest, ListenAssignsPortAndAcceptsConnections) {
  Result<TcpListener> listener = ListenTcp("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  EXPECT_GT(listener.value().port, 0);

  Result<OwnedFd> client =
      ConnectTcp("127.0.0.1", listener.value().port);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Result<OwnedFd> accepted = AcceptClient(listener.value().fd.get());
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  ASSERT_TRUE(accepted.value().valid());

  // Round trip a line each way.
  ASSERT_TRUE(WriteAll(client.value().get(), "hello\n").ok());
  std::string carry;
  Result<std::string> line = ReadLine(accepted.value().get(), &carry);
  ASSERT_TRUE(line.ok()) << line.status().ToString();
  EXPECT_EQ(line.value(), "hello");

  ASSERT_TRUE(WriteAll(accepted.value().get(), "world\r\n").ok());
  carry.clear();
  line = ReadLine(client.value().get(), &carry);
  ASSERT_TRUE(line.ok());
  EXPECT_EQ(line.value(), "world");  // \r stripped
}

TEST(SocketTest, NonBlockingAcceptReturnsInvalidWhenIdle) {
  Result<TcpListener> listener = ListenTcp("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  ASSERT_TRUE(SetNonBlocking(listener.value().fd.get()).ok());
  Result<OwnedFd> accepted = AcceptClient(listener.value().fd.get());
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  EXPECT_FALSE(accepted.value().valid());
}

TEST(SocketTest, ReadAvailableDistinguishesEagainFromEof) {
  Result<TcpListener> listener = ListenTcp("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  Result<OwnedFd> client = ConnectTcp("127.0.0.1", listener.value().port);
  ASSERT_TRUE(client.ok());
  Result<OwnedFd> accepted = AcceptClient(listener.value().fd.get());
  ASSERT_TRUE(accepted.ok());
  ASSERT_TRUE(SetNonBlocking(accepted.value().get()).ok());

  std::string buffer;
  Result<ReadOutcome> outcome =
      ReadAvailable(accepted.value().get(), &buffer);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().bytes, -1);  // nothing pending yet
  EXPECT_TRUE(buffer.empty());

  ASSERT_TRUE(WriteAll(client.value().get(), "abc").ok());
  // The bytes may take a moment to land; poll until they do.
  for (int i = 0; i < 1000 && buffer.empty(); ++i) {
    outcome = ReadAvailable(accepted.value().get(), &buffer);
    ASSERT_TRUE(outcome.ok());
  }
  EXPECT_EQ(buffer, "abc");

  client.value().Reset();  // close -> EOF on the server side
  for (int i = 0; i < 1000; ++i) {
    outcome = ReadAvailable(accepted.value().get(), &buffer);
    ASSERT_TRUE(outcome.ok());
    if (outcome.value().bytes == 0) break;
  }
  EXPECT_EQ(outcome.value().bytes, 0);
}

TEST(SocketTest, ConnectToClosedPortFails) {
  // Bind a port, learn its number, close it, then connect to the corpse.
  int dead_port = 0;
  {
    Result<TcpListener> listener = ListenTcp("127.0.0.1", 0);
    ASSERT_TRUE(listener.ok());
    dead_port = listener.value().port;
  }
  EXPECT_FALSE(ConnectTcp("127.0.0.1", dead_port).ok());
}

TEST(SocketTest, NonNumericHostRejected) {
  EXPECT_FALSE(ListenTcp("not-a-host", 0).ok());
}

// htons would wrap these onto another port (70000 onto 4464, -1 onto
// 65535, 65536 onto 0, a kernel-assigned one).
TEST(SocketTest, PortsOutsideSixteenBitsRejected) {
  for (const int port : {-1, 65536, 70000}) {
    const Result<TcpListener> listener = ListenTcp("127.0.0.1", port);
    ASSERT_FALSE(listener.ok()) << port;
    EXPECT_EQ(listener.status().code(), StatusCode::kInvalidArgument);
    const Result<OwnedFd> client = ConnectTcp("127.0.0.1", port);
    ASSERT_FALSE(client.ok()) << port;
    EXPECT_EQ(client.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(SocketTest, OwnedFdMoveTransfersOwnership) {
  Result<TcpListener> listener = ListenTcp("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  OwnedFd a = std::move(listener.value().fd);
  EXPECT_TRUE(a.valid());
  OwnedFd b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
}

// A connected socket pair plus an installed injector, torn down on scope
// exit so no fault script leaks into the next test.
class FaultInjectorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<TcpListener> listener = ListenTcp("127.0.0.1", 0);
    ASSERT_TRUE(listener.ok()) << listener.status().ToString();
    listener_ = std::move(listener.value());
    Result<OwnedFd> client = ConnectTcp("127.0.0.1", listener_.port);
    ASSERT_TRUE(client.ok());
    client_ = std::move(client.value());
    Result<OwnedFd> accepted = AcceptClient(listener_.fd.get());
    ASSERT_TRUE(accepted.ok());
    ASSERT_TRUE(accepted.value().valid());
    server_ = std::move(accepted.value());
  }

  void TearDown() override {
    FaultInjector::InstallOnThisThread(nullptr);
  }

  void Arm(const std::string& script) {
    Result<FaultInjector> injector = FaultInjector::Parse(script);
    ASSERT_TRUE(injector.ok()) << injector.status().ToString();
    injector_ = std::move(injector.value());
    FaultInjector::InstallOnThisThread(&injector_);
  }

  TcpListener listener_;
  OwnedFd client_;
  OwnedFd server_;
  FaultInjector injector_;
};

TEST_F(FaultInjectorTest, ParseRejectsMalformedScripts) {
  EXPECT_FALSE(FaultInjector::Parse("bogus").ok());
  EXPECT_FALSE(FaultInjector::Parse("read=EINTR").ok());
  EXPECT_FALSE(FaultInjector::Parse("read@0=EINTR").ok());      // 1-based
  EXPECT_FALSE(FaultInjector::Parse("read@5..2=EINTR").ok());   // descending
  EXPECT_FALSE(FaultInjector::Parse("read@1=EWHATEVER").ok());
  EXPECT_FALSE(FaultInjector::Parse("flush@1=EINTR").ok());     // unknown op
  EXPECT_FALSE(FaultInjector::Parse("write@1=short:x").ok());
  EXPECT_TRUE(FaultInjector::Parse("").ok());
  EXPECT_TRUE(
      FaultInjector::Parse("read@2=EINTR; write@3..=short:4;accept@1=EMFILE")
          .ok());
}

TEST_F(FaultInjectorTest, NothingInstalledMeansNoInterference) {
  ASSERT_TRUE(WriteAll(client_.get(), "plain\n").ok());
  std::string carry;
  Result<std::string> line = ReadLine(server_.get(), &carry);
  ASSERT_TRUE(line.ok());
  EXPECT_EQ(line.value(), "plain");
}

TEST_F(FaultInjectorTest, EintrOnReadAndWriteIsRetriedTransparently) {
  Arm("write@1=EINTR;read@1=EINTR");
  ASSERT_TRUE(WriteAll(client_.get(), "retry\n").ok());
  std::string carry;
  Result<std::string> line = ReadLine(server_.get(), &carry);
  ASSERT_TRUE(line.ok()) << line.status().ToString();
  EXPECT_EQ(line.value(), "retry");
  // Each op saw the injected attempt plus the successful retry.
  EXPECT_EQ(injector_.fired(), 2u);
  EXPECT_GE(injector_.calls(FaultInjector::Op::kWrite), 2u);
  EXPECT_GE(injector_.calls(FaultInjector::Op::kRead), 2u);
}

TEST_F(FaultInjectorTest, ShortWritesStillDeliverEveryByte) {
  // Clamp the first three sends to a single byte each: WriteAll must keep
  // going until the whole payload is out.
  Arm("write@1..3=short:1");
  ASSERT_TRUE(WriteAll(client_.get(), "abcdef\n").ok());
  EXPECT_EQ(injector_.calls(FaultInjector::Op::kWrite), 4u);
  std::string carry;
  Result<std::string> line = ReadLine(server_.get(), &carry);
  ASSERT_TRUE(line.ok());
  EXPECT_EQ(line.value(), "abcdef");
}

TEST_F(FaultInjectorTest, WriteSomeSurfacesEagainAsPartialProgress) {
  // An unfaulted send would write everything in one call, so a short fault
  // forces a second call, which then hits the scripted EAGAIN.
  Arm("write@1=short:3;write@2=EAGAIN");
  Result<size_t> written = WriteSome(client_.get(), "abcdef");
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  EXPECT_EQ(written.value(), 3u);  // the short write's bytes, then EAGAIN
  std::string buffer;
  for (int i = 0; i < 1000 && buffer.size() < 3; ++i) {
    ASSERT_TRUE(SetNonBlocking(server_.get()).ok());
    ASSERT_TRUE(ReadAvailable(server_.get(), &buffer).ok());
  }
  EXPECT_EQ(buffer, "abc");
}

TEST_F(FaultInjectorTest, HardWriteErrorReportedAsIoError) {
  Arm("write@1=ECONNRESET");
  const Status status = WriteAll(client_.get(), "doomed\n");
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("write"), std::string::npos);
}

TEST_F(FaultInjectorTest, ReadAvailableDeliversBytesBeforeMidStreamError) {
  // 5000 bytes arrive; the second chunked read is scripted to die. The
  // first chunk's bytes must still be delivered, and the next call picks
  // up the rest: a mid-stream error never eats data already read.
  ASSERT_TRUE(SetNonBlocking(server_.get()).ok());
  const std::string payload(5000, 'z');
  ASSERT_TRUE(WriteAll(client_.get(), payload).ok());
  Result<bool> ready = WaitReadable(server_.get(), 5000);
  ASSERT_TRUE(ready.ok());
  ASSERT_TRUE(ready.value());
  Arm("read@2=ECONNRESET");
  std::string buffer;
  Result<ReadOutcome> first = ReadAvailable(server_.get(), &buffer);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value().bytes, 4096);
  EXPECT_EQ(buffer.size(), 4096u);
  Result<ReadOutcome> second = ReadAvailable(server_.get(), &buffer);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(buffer, payload);
}

TEST_F(FaultInjectorTest, AcceptFaultsSurfaceOnceAndThenRecover) {
  Arm("accept@1=EMFILE");
  Result<OwnedFd> shed = AcceptClient(listener_.fd.get());
  EXPECT_FALSE(shed.ok());  // the scripted fd-pressure failure
  // A fresh client connects fine once the fault schedule has passed.
  Result<OwnedFd> client = ConnectTcp("127.0.0.1", listener_.port);
  ASSERT_TRUE(client.ok());
  Result<OwnedFd> accepted = AcceptClient(listener_.fd.get());
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  EXPECT_TRUE(accepted.value().valid());
}

TEST_F(FaultInjectorTest, AcceptEintrIsRetried) {
  Arm("accept@1=EINTR");
  Result<OwnedFd> client = ConnectTcp("127.0.0.1", listener_.port);
  ASSERT_TRUE(client.ok());
  Result<OwnedFd> accepted = AcceptClient(listener_.fd.get());
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  EXPECT_TRUE(accepted.value().valid());
  EXPECT_EQ(injector_.calls(FaultInjector::Op::kAccept), 2u);
}

TEST_F(FaultInjectorTest, InjectorIsThreadLocal) {
  Arm("read@1..=ECONNRESET");
  // Another thread using the same helpers sees no faults at all.
  Status other = Status::Ok();
  std::thread sibling([&] {
    if (!WriteAll(client_.get(), "sibling\n").ok()) {
      other = Status::IoError("write failed");
      return;
    }
    std::string carry;
    Result<std::string> line = ReadLine(server_.get(), &carry);
    if (!line.ok() || line.value() != "sibling") {
      other = Status::IoError("read failed");
    }
  });
  sibling.join();
  EXPECT_TRUE(other.ok()) << other.ToString();
  EXPECT_EQ(injector_.fired(), 0u);
}

TEST(WaitReadableTest, TimesOutThenSeesData) {
  Result<TcpListener> listener = ListenTcp("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  Result<OwnedFd> client = ConnectTcp("127.0.0.1", listener.value().port);
  ASSERT_TRUE(client.ok());
  Result<OwnedFd> accepted = AcceptClient(listener.value().fd.get());
  ASSERT_TRUE(accepted.ok());

  Result<bool> idle = WaitReadable(accepted.value().get(), 0);
  ASSERT_TRUE(idle.ok());
  EXPECT_FALSE(idle.value());

  ASSERT_TRUE(WriteAll(client.value().get(), "x").ok());
  Result<bool> ready = WaitReadable(accepted.value().get(), 2000);
  ASSERT_TRUE(ready.ok());
  EXPECT_TRUE(ready.value());
}

}  // namespace
}  // namespace hido
