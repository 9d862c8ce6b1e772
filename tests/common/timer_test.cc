#include "common/timer.h"

#include <thread>

#include <gtest/gtest.h>

namespace hido {
namespace {

TEST(StopWatchTest, ElapsedIsNonNegativeAndMonotone) {
  StopWatch watch;
  const double first = watch.ElapsedSeconds();
  EXPECT_GE(first, 0.0);
  const double second = watch.ElapsedSeconds();
  EXPECT_GE(second, first);
}

TEST(StopWatchTest, MeasuresSleep) {
  StopWatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double elapsed = watch.ElapsedSeconds();
  EXPECT_GE(elapsed, 0.015);
  EXPECT_LT(elapsed, 5.0);  // generous ceiling for loaded CI machines
}

TEST(StopWatchTest, ResetRestartsTheClock) {
  StopWatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  watch.Reset();
  EXPECT_LT(watch.ElapsedSeconds(), 0.015);
}

}  // namespace
}  // namespace hido
