#include "obs/trace.h"

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace turbo::obs {
namespace {

// Histograms are resolved once by the caller, as PredictionServer does
// in its constructor; the timer never looks one up by name.
TEST(StageTimerTest, SpansLandInPrefixedHistograms) {
  MetricsRegistry reg;
  Histogram* sample_ms = reg.GetHistogram("predict_sample_ms");
  Histogram* feature_ms = reg.GetHistogram("predict_feature_ms");
  {
    StageTimer timer(reg.GetHistogram("predict_total_ms"), 7);
    EXPECT_EQ(timer.request_id(), 7u);
    {
      auto span = timer.StartSpan("sample", sample_ms);
      const double ms = span.Stop();
      EXPECT_GE(ms, 0.0);
    }
    timer.RecordStage("feature", 2.5, feature_ms);
    ASSERT_EQ(timer.spans().size(), 2u);
    EXPECT_EQ(timer.spans()[0].stage, "sample");
    EXPECT_EQ(timer.spans()[1].stage, "feature");
    EXPECT_DOUBLE_EQ(timer.spans()[1].millis, 2.5);
    const double total = timer.Finish();
    EXPECT_DOUBLE_EQ(total, timer.TotalMillis());
  }
  EXPECT_EQ(reg.GetHistogram("predict_sample_ms")->count(), 1u);
  EXPECT_EQ(reg.GetHistogram("predict_feature_ms")->count(), 1u);
  EXPECT_EQ(reg.GetHistogram("predict_total_ms")->count(), 1u);
  EXPECT_DOUBLE_EQ(reg.GetHistogram("predict_feature_ms")->Sum(), 2.5);
}

TEST(StageTimerTest, ModeledCostAddsToWallTime) {
  MetricsRegistry reg;
  StageTimer timer(reg.GetHistogram("t_total_ms"), 1);
  auto span = timer.StartSpan("stage", reg.GetHistogram("t_stage_ms"));
  span.AddModeledMillis(100.0);
  const double ms = span.Stop();
  EXPECT_GE(ms, 100.0);
  EXPECT_DOUBLE_EQ(timer.spans()[0].millis, ms);
}

TEST(StageTimerTest, StopIsIdempotent) {
  MetricsRegistry reg;
  StageTimer timer(reg.GetHistogram("t_total_ms"), 1);
  auto span = timer.StartSpan("stage", reg.GetHistogram("t_stage_ms"));
  const double first = span.Stop();
  EXPECT_DOUBLE_EQ(span.Stop(), first);
  EXPECT_EQ(timer.spans().size(), 1u);
  EXPECT_EQ(reg.GetHistogram("t_stage_ms")->count(), 1u);
}

TEST(StageTimerTest, ScopeExitStopsSpan) {
  MetricsRegistry reg;
  StageTimer timer(reg.GetHistogram("t_total_ms"), 1);
  {
    auto span = timer.StartSpan("scoped", reg.GetHistogram("t_scoped_ms"));
  }
  EXPECT_EQ(reg.GetHistogram("t_scoped_ms")->count(), 1u);
}

TEST(StageTimerTest, DestructorFinishesTrace) {
  MetricsRegistry reg;
  {
    StageTimer timer(reg.GetHistogram("t_total_ms"), 1);
    timer.RecordStage("a", 1.0, reg.GetHistogram("t_a_ms"));
  }
  EXPECT_EQ(reg.GetHistogram("t_total_ms")->count(), 1u);
  EXPECT_DOUBLE_EQ(reg.GetHistogram("t_total_ms")->Sum(), 1.0);
}

TEST(StageTimerTest, FinishIsIdempotent) {
  MetricsRegistry reg;
  StageTimer timer(reg.GetHistogram("t_total_ms"), 1);
  timer.RecordStage("a", 1.0, reg.GetHistogram("t_a_ms"));
  EXPECT_DOUBLE_EQ(timer.Finish(), 1.0);
  EXPECT_DOUBLE_EQ(timer.Finish(), 1.0);
  EXPECT_EQ(reg.GetHistogram("t_total_ms")->count(), 1u);
}

TEST(StageTimerTest, TotalSumsAllSpansExactly) {
  MetricsRegistry reg;
  StageTimer timer(reg.GetHistogram("t_total_ms"), 1);
  Histogram* stage_ms = reg.GetHistogram("t_stage_ms");
  timer.RecordStage("a", 1.25, stage_ms);
  timer.RecordStage("b", 2.5, stage_ms);
  timer.RecordStage("c", 0.25, stage_ms);
  EXPECT_DOUBLE_EQ(timer.Finish(), 1.25 + 2.5 + 0.25);
}

}  // namespace
}  // namespace turbo::obs
