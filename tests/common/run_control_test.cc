#include "common/run_control.h"

#include <csignal>
#include <string>

#include <gtest/gtest.h>

#include "common/status.h"

namespace hido {
namespace {

TEST(StopCauseTest, NamesAreStable) {
  EXPECT_EQ(std::string(StopCauseToString(StopCause::kNone)), "none");
  EXPECT_EQ(std::string(StopCauseToString(StopCause::kDeadline)), "deadline");
  EXPECT_EQ(std::string(StopCauseToString(StopCause::kCancelled)),
            "cancelled");
  EXPECT_EQ(std::string(StopCauseToString(StopCause::kFailpoint)),
            "failpoint");
}

TEST(FakeClockTest, AdvanceAndSet) {
  FakeClock clock(10.0);
  EXPECT_EQ(clock.NowSeconds(), 10.0);
  clock.Advance(2.5);
  EXPECT_EQ(clock.NowSeconds(), 12.5);
  clock.Set(100.0);
  EXPECT_EQ(clock.NowSeconds(), 100.0);
}

TEST(FakeClockTest, AutoStepAdvancesPerRead) {
  FakeClock clock(0.0, 1.0);
  EXPECT_EQ(clock.NowSeconds(), 0.0);
  EXPECT_EQ(clock.NowSeconds(), 1.0);
  EXPECT_EQ(clock.NowSeconds(), 2.0);
}

TEST(RealClockTest, IsMonotone) {
  const double a = Clock::Real().NowSeconds();
  const double b = Clock::Real().NowSeconds();
  EXPECT_GE(b, a);
}

TEST(StopTokenTest, StartsClean) {
  StopToken token;
  EXPECT_FALSE(token.ShouldStop());
  EXPECT_FALSE(token.stop_requested());
  EXPECT_EQ(token.cause(), StopCause::kNone);
}

TEST(StopTokenTest, CancelIsStickyAndFirstCauseWins) {
  StopToken token;
  token.RequestCancel(StopCause::kCancelled);
  EXPECT_TRUE(token.ShouldStop());
  EXPECT_TRUE(token.stop_requested());
  token.RequestCancel(StopCause::kDeadline);  // loses: cause already set
  EXPECT_EQ(token.cause(), StopCause::kCancelled);
  EXPECT_TRUE(token.ShouldStop());
}

TEST(StopTokenTest, DeadlineExpiresOnFakeClockWithoutSleeping) {
  FakeClock clock(0.0);
  StopToken token(&clock);
  token.SetDeadline(5.0);
  EXPECT_FALSE(token.ShouldStop());
  clock.Advance(4.999);
  EXPECT_FALSE(token.ShouldStop());
  clock.Advance(0.001);
  EXPECT_TRUE(token.ShouldStop());
  EXPECT_EQ(token.cause(), StopCause::kDeadline);
}

TEST(StopTokenTest, NonPositiveDeadlineClears) {
  FakeClock clock(0.0);
  StopToken token(&clock);
  token.SetDeadline(1.0);
  token.SetDeadline(0.0);
  clock.Advance(1000.0);
  EXPECT_FALSE(token.ShouldStop());
}

TEST(StopTokenTest, FailpointFiresAtExactPollCount) {
  StopToken token;
  token.ArmFailpoint(3);
  EXPECT_FALSE(token.ShouldStop());  // poll 1
  EXPECT_FALSE(token.ShouldStop());  // poll 2
  EXPECT_TRUE(token.ShouldStop());   // poll 3 fires
  EXPECT_EQ(token.cause(), StopCause::kFailpoint);
  EXPECT_TRUE(token.ShouldStop());   // sticky
}

TEST(StopTokenTest, PollCountObservable) {
  StopToken token;
  EXPECT_EQ(token.polls(), 0u);
  token.ShouldStop();
  token.ShouldStop();
  EXPECT_EQ(token.polls(), 2u);
}

TEST(StopPollerTest, NoSourcesNeverStops) {
  StopPoller poller(nullptr);
  EXPECT_FALSE(poller.ShouldStop());
  EXPECT_FALSE(poller.stopped());
  const RunStatus status = poller.status();
  EXPECT_TRUE(status.completed);
  EXPECT_EQ(status.stop_cause, StopCause::kNone);
}

TEST(StopPollerTest, LocalBudgetExpiresOnInjectedClock) {
  FakeClock clock(0.0, 1.0);  // +1s per read
  StopToken token(&clock);
  token.SetDeadline(2.5);
  StopPoller poller(&token);
  // SetDeadline reads once (t=0 -> deadline 2.5); polls read t=1, 2, 3.
  EXPECT_FALSE(poller.ShouldStop());
  EXPECT_FALSE(poller.ShouldStop());
  EXPECT_TRUE(poller.ShouldStop());
  const RunStatus status = poller.status();
  EXPECT_FALSE(status.completed);
  EXPECT_EQ(status.stop_cause, StopCause::kDeadline);
}

TEST(StopPollerTest, StickyAfterFirstStop) {
  StopToken external;
  StopPoller poller(&external);
  external.RequestCancel();
  EXPECT_TRUE(poller.ShouldStop());
  EXPECT_TRUE(poller.stopped());
  EXPECT_TRUE(poller.ShouldStop());
}

TEST(StopPollerTest, TokenFiredAfterLastPollLeavesRunCompleted) {
  // A run that polled to its end without seeing a stop finished all of its
  // work; a token that fires afterwards must not mark it interrupted.
  StopToken token;
  StopPoller poller(&token);
  EXPECT_FALSE(poller.ShouldStop());
  token.RequestCancel();
  EXPECT_FALSE(poller.stopped());
  EXPECT_EQ(poller.cause(), StopCause::kNone);
  const RunStatus status = poller.status();
  EXPECT_TRUE(status.completed);
  EXPECT_EQ(status.stop_cause, StopCause::kNone);
}

TEST(SigintCancelTest, RaiseCancelsInstalledToken) {
  StopToken token;
  InstallSigintCancel(&token);
  ASSERT_EQ(std::raise(SIGINT), 0);
  EXPECT_TRUE(token.stop_requested());
  EXPECT_EQ(token.cause(), StopCause::kCancelled);
  InstallSigintCancel(nullptr);
  // Detached: a further SIGINT must be harmless and touch no token.
  StopToken other;
  ASSERT_EQ(std::raise(SIGINT), 0);
  EXPECT_FALSE(other.stop_requested());
}

TEST(StopStatusTest, MapsCauseToStatusCode) {
  // Deadline stops surface as kDeadlineExceeded; everything else (cancel,
  // failpoint) is kCancelled. The message names the aborted operation.
  StopToken deadline;
  deadline.RequestCancel(StopCause::kDeadline);
  const Status d = StopStatus(deadline, "grid build");
  EXPECT_EQ(d.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(d.message().find("grid build"), std::string::npos);

  StopToken cancelled;
  cancelled.RequestCancel();
  EXPECT_EQ(StopStatus(cancelled, "csv read").code(),
            StatusCode::kCancelled);

  StopToken failpoint;
  failpoint.ArmFailpoint(1);
  EXPECT_TRUE(failpoint.ShouldStop());
  EXPECT_EQ(StopStatus(failpoint, "csv read").code(),
            StatusCode::kCancelled);
}

}  // namespace
}  // namespace hido
