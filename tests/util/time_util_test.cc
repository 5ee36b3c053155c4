#include "util/time_util.h"

#include <gtest/gtest.h>

namespace turbo {
namespace {

TEST(TimeUtilTest, Constants) {
  EXPECT_EQ(kMinute, 60);
  EXPECT_EQ(kHour, 3600);
  EXPECT_EQ(kDay, 86400);
}

TEST(TimeUtilTest, FormatZero) { EXPECT_EQ(FormatSimTime(0), "0d 00:00:00"); }

TEST(TimeUtilTest, FormatMixed) {
  EXPECT_EQ(FormatSimTime(2 * kDay + 3 * kHour + 4 * kMinute + 5),
            "2d 03:04:05");
}

TEST(TimeUtilTest, FormatNegative) {
  EXPECT_EQ(FormatSimTime(-kHour), "-0d 01:00:00");
}

TEST(StopwatchTest, MeasuresElapsed) {
  Stopwatch sw;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i * 0.5;
  EXPECT_GE(sw.ElapsedSeconds(), 0.0);
  EXPECT_GE(sw.ElapsedMicros(), sw.ElapsedMillis());
}

}  // namespace
}  // namespace turbo
