// Tests of the benchmark's own accounting: the tail-percentile rule, the
// due-time latency accounting of the open-loop generator, the metric-name
// grammar, the span recorder's self-time split, and the client's reply
// reader.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <string>
#include <string_view>
#include <vector>

#include "serve_load.h"
#include "span_recorder.h"
#include "stats.h"

namespace e2e {
namespace {

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(PercentileTest, NearestRank) {
  EXPECT_EQ(Percentile(Ramp(100), 50.0), 50.0);
  EXPECT_EQ(Percentile(Ramp(100), 99.0), 99.0);
  EXPECT_EQ(Percentile(Ramp(100), 100.0), 100.0);
  EXPECT_EQ(Percentile({3.0, 1.0, 2.0}, 50.0), 2.0);
  EXPECT_EQ(Percentile({}, 50.0), 0.0);
}

TEST(PercentileTest, SamplesBeyondCountsTheTail) {
  EXPECT_EQ(SamplesBeyond(1000, 99.0), 10u);
  EXPECT_EQ(SamplesBeyond(999, 99.0), 9u);
  EXPECT_EQ(SamplesBeyond(10000, 99.9), 10u);
  EXPECT_EQ(SamplesBeyond(0, 50.0), 0u);
}

TEST(TailPercentileTest, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(TailPercentile(Ramp(19)).percentile, 0.0);
  EXPECT_EQ(TailPercentile(Ramp(20)).percentile, 50.0);
  EXPECT_EQ(TailPercentile(Ramp(999)).percentile, 90.0);
  const Tail p99 = TailPercentile(Ramp(1000));
  EXPECT_EQ(p99.percentile, 99.0);
  EXPECT_EQ(p99.value, 990.0);
  EXPECT_EQ(p99.count, 1000u);
  EXPECT_EQ(TailPercentile(Ramp(10000)).percentile, 99.9);
  EXPECT_EQ(TailPercentile(Ramp(100000)).percentile, 99.99);
}

TEST(OpenLoopLogTest, LatencyRunsFromDueTime) {
  OpenLoopLog log(/*start=*/10.0, /*rate=*/100.0, /*late_threshold=*/1e-4);
  EXPECT_DOUBLE_EQ(log.DueAt(0), 10.0);
  EXPECT_DOUBLE_EQ(log.DueAt(5), 10.05);
  // Request 0 goes out on time; request 1 is sent 20 ms late because the
  // generator stalled. Both replies take 1 ms after sending.
  log.Sent(0, 10.0);
  log.Answered(0, 10.001);
  log.Sent(1, 10.03);
  log.Answered(1, 10.031);
  ASSERT_EQ(log.latencies().size(), 2u);
  EXPECT_NEAR(log.latencies()[0], 0.001, 1e-12);
  // The stall counts against request 1: 21 ms from due, not 1 ms.
  EXPECT_NEAR(log.latencies()[1], 0.021, 1e-12);
  EXPECT_EQ(log.sent(), 2u);
  EXPECT_DOUBLE_EQ(log.LateFraction(), 0.5);
}

TEST(OpenLoopLogTest, ServerStallChargesEveryQueuedRequest) {
  OpenLoopLog log(0.0, 1000.0, 1e-4);
  // Ten requests sent on time; the server answers all of them at 15 ms.
  for (uint64_t i = 0; i < 10; ++i) log.Sent(i, log.DueAt(i));
  for (uint64_t i = 0; i < 10; ++i) log.Answered(i, 0.015);
  EXPECT_NEAR(log.latencies().front(), 0.015, 1e-12);
  EXPECT_NEAR(log.latencies().back(), 0.006, 1e-12);
  EXPECT_DOUBLE_EQ(log.LateFraction(), 0.0);
}

TEST(OpenLoopLogTest, WindowedPercentileIgnoresOneStalledWindow) {
  // 1000 requests per second for 4 s, 1 ms each, except that the third
  // second stalls: every reply in it takes 20 ms.
  OpenLoopLog log(0.0, 1000.0, 1e-4);
  for (uint64_t i = 0; i < 4000; ++i) {
    log.Sent(i, log.DueAt(i));
    const double latency = (i >= 2000 && i < 3000) ? 0.020 : 0.001;
    log.Answered(i, log.DueAt(i) + latency);
  }
  // Over the whole phase the stall owns a quarter of the sample.
  EXPECT_NEAR(Percentile(log.latencies(), 99.0), 0.020, 1e-9);
  // Per window of 1000 requests, three of four windows read 1 ms.
  EXPECT_NEAR(log.WindowedPercentile(99.0, 1000), 0.001, 1e-9);
  // Windows too small to support p99 are skipped.
  EXPECT_EQ(log.WindowedPercentile(99.0, 500), 0.0);
}

TEST(ReadReplyLinesTest, DispatchesAFullReadBufferBeforeEagain) {
  // Exactly 64 KiB of replies: the read after the full one finds the pipe
  // empty (EAGAIN), and every line already read must still be dispatched.
  int fds[2];
  ASSERT_EQ(::pipe2(fds, O_NONBLOCK), 0);
  ASSERT_GE(::fcntl(fds[1], F_SETPIPE_SZ, 256 * 1024), 128 * 1024);
  const std::string reply(63, 'r');
  std::string stream;
  for (int i = 0; i < 1024; ++i) stream += reply + "\n";
  ASSERT_EQ(stream.size(), 64u * 1024);
  ASSERT_EQ(::write(fds[1], stream.data(), stream.size()),
            static_cast<ssize_t>(stream.size()));
  std::string buffer;
  bool closed = false;
  size_t replies = 0;
  EXPECT_TRUE(ReadReplyLines(fds[0], &buffer, &closed,
                             [&](std::string_view line) {
                               replies += line == reply ? 1 : 0;
                             }));
  EXPECT_EQ(replies, 1024u);
  EXPECT_TRUE(buffer.empty());
  EXPECT_FALSE(closed);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(ReadReplyLinesTest, KeepsAPartialLineUntilItEnds) {
  int fds[2];
  ASSERT_EQ(::pipe2(fds, O_NONBLOCK), 0);
  std::vector<std::string> lines;
  const auto collect = [&](std::string_view line) { lines.emplace_back(line); };
  std::string buffer;
  bool closed = false;
  ASSERT_EQ(::write(fds[1], "ok a\nok b", 9), 9);
  EXPECT_TRUE(ReadReplyLines(fds[0], &buffer, &closed, collect));
  EXPECT_EQ(lines, std::vector<std::string>{"ok a"});
  EXPECT_EQ(buffer, "ok b");
  ASSERT_EQ(::write(fds[1], "\n", 1), 1);
  ::close(fds[1]);
  EXPECT_TRUE(ReadReplyLines(fds[0], &buffer, &closed, collect));
  EXPECT_EQ(lines, (std::vector<std::string>{"ok a", "ok b"}));
  EXPECT_TRUE(ReadReplyLines(fds[0], &buffer, &closed, collect));
  EXPECT_TRUE(closed);
  ::close(fds[0]);
}

TEST(MetricNameTest, Grammar) {
  EXPECT_TRUE(IsValidMetricName("wall_s"));
  EXPECT_TRUE(IsValidMetricName("serve.p99_us.high"));
  EXPECT_TRUE(IsValidMetricName("ensemble.member_s.random-subspace"));
  EXPECT_TRUE(IsValidMetricName("9lives"));
  EXPECT_FALSE(IsValidMetricName(""));
  EXPECT_FALSE(IsValidMetricName("_hidden"));
  EXPECT_FALSE(IsValidMetricName(".dot"));
  EXPECT_FALSE(IsValidMetricName("has space"));
  EXPECT_FALSE(IsValidMetricName("slash/no"));
  EXPECT_TRUE(IsValidMetricName(std::string(64, 'a')));
  EXPECT_FALSE(IsValidMetricName(std::string(65, 'a')));

  EXPECT_TRUE(IsValidUnit("ms"));
  EXPECT_TRUE(IsValidUnit("1/s"));
  EXPECT_TRUE(IsValidUnit("%"));
  EXPECT_FALSE(IsValidUnit(""));
  EXPECT_FALSE(IsValidUnit("per second"));
  EXPECT_FALSE(IsValidUnit(std::string(17, 's')));
}

TEST(MetricSetTest, RejectsRepeatsAndBadNames) {
  MetricSet ok;
  ok.Add("a", 1.0, "s");
  ok.Add("b", 2.5, "ms");
  EXPECT_EQ(ok.error(), "");
  EXPECT_EQ(ok.ToJson(),
            "{\"a\": {\"value\": 1, \"unit\": \"s\"}, "
            "\"b\": {\"value\": 2.5, \"unit\": \"ms\"}}");

  MetricSet repeated;
  repeated.Add("a", 1.0, "s");
  repeated.Add("a", 1.0, "s");
  EXPECT_NE(repeated.error(), "");

  MetricSet bad;
  bad.Add("bad name", 1.0, "s");
  EXPECT_NE(bad.error(), "");
}

TEST(SpanRecorderTest, SelfTimesSplitThePass) {
  SpanRecorder rec;
  hido::obs::TraceNode tree;
  tree.children["grid_build"].seconds = 0.25;
  tree.children["evolutionary_search"].seconds = 0.5;
  tree.children["mystery"].seconds = 0.05;

  const int root = rec.Add({"pass", 0.0, 2.0, -1, 3});
  rec.Add({"data.read_csv", 0.0, 0.5, root, 3});
  const int detect = rec.Add({"core.detect", 0.5, 1.75, root, 3});
  rec.ImportTree(tree, detect);

  EXPECT_DOUBLE_EQ(rec.Duration(3, "grid.build"), 0.25);
  EXPECT_DOUBLE_EQ(rec.Duration(3, "core.search"), 0.5);
  EXPECT_NEAR(rec.Duration(3, "core.lib.mystery"), 0.05, 1e-12);
  const auto self = rec.SelfTimeByLayer(3);
  EXPECT_DOUBLE_EQ(self.at("data"), 0.5);
  EXPECT_DOUBLE_EQ(self.at("grid"), 0.25);
  // core = detect self (1.25 - 0.8) + search 0.5 + mystery 0.05.
  EXPECT_NEAR(self.at("core"), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(self.at("unattributed"), 0.25);
  double total = 0.0;
  for (const auto& [layer, seconds] : self) total += seconds;
  EXPECT_NEAR(total, 2.0, 1e-12);
  EXPECT_TRUE(rec.SelfTimeByLayer(4).empty());
}

TEST(LibrarySpanNameTest, MapsPhasesToLayers) {
  EXPECT_EQ(LibrarySpanName("grid_build", "core.detect"), "grid.build");
  EXPECT_EQ(LibrarySpanName("ensemble_member", "ensemble.detect"),
            "ensemble.member");
  EXPECT_EQ(LibrarySpanName("load_input", "ensemble.detect"),
            "ensemble.lib.load_input");
}

}  // namespace
}  // namespace e2e
