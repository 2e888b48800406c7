#include "common/trace_span.h"

#include <gtest/gtest.h>

#include <sstream>

#include "common/metrics.h"

namespace edgeslice {
namespace {

class TraceSpanTest : public ::testing::Test {
 protected:
  void TearDown() override { set_metrics_enabled(true); }
  Tracer tracer_;
};

TEST_F(TraceSpanTest, RecordAggregatesDirectly) {
  tracer_.record("solve", 2.0);
  tracer_.record("solve", 4.0);
  const SpanStats stats = tracer_.overall("solve");
  EXPECT_EQ(stats.count, 2u);
  EXPECT_DOUBLE_EQ(stats.total_s, 6.0);
  EXPECT_DOUBLE_EQ(stats.mean_s(), 3.0);
  EXPECT_DOUBLE_EQ(stats.min_s, 2.0);
  EXPECT_DOUBLE_EQ(stats.max_s, 4.0);
  EXPECT_EQ(tracer_.names(), std::vector<std::string>{"solve"});
}

TEST_F(TraceSpanTest, UnknownPathIsEmptyStats) {
  EXPECT_EQ(tracer_.overall("nope").count, 0u);
  EXPECT_TRUE(tracer_.periods("nope").empty());
}

TEST_F(TraceSpanTest, SpanMeasuresNonNegativeTime) {
  {
    auto span = tracer_.span("work");
    EXPECT_EQ(span.path(), "work");
    EXPECT_GE(span.stop(), 0.0);
  }
  EXPECT_EQ(tracer_.overall("work").count, 1u);
}

TEST_F(TraceSpanTest, StopIsIdempotentWithDestructor) {
  {
    auto span = tracer_.span("once");
    span.stop();
    // Destructor must not record a second time.
  }
  EXPECT_EQ(tracer_.overall("once").count, 1u);
}

TEST_F(TraceSpanTest, NestedSpansRecordUnderParentPath) {
  {
    auto outer = tracer_.span("period");
    auto inner = tracer_.span("solve");
    EXPECT_EQ(inner.path(), "period/solve");
    inner.stop();
    // After the child stops, a new span nests under the parent again.
    auto sibling = tracer_.span("train");
    EXPECT_EQ(sibling.path(), "period/train");
  }
  EXPECT_EQ(tracer_.overall("period").count, 1u);
  EXPECT_EQ(tracer_.overall("period/solve").count, 1u);
  EXPECT_EQ(tracer_.overall("period/train").count, 1u);
  // Top level is restored once the outer span closes.
  auto top = tracer_.span("fresh");
  EXPECT_EQ(top.path(), "fresh");
}

TEST_F(TraceSpanTest, PerPeriodAggregation) {
  tracer_.set_period(3);
  tracer_.record("solve", 1.0);
  tracer_.record("solve", 2.0);
  tracer_.set_period(4);
  tracer_.record("solve", 10.0);
  EXPECT_EQ(tracer_.overall("solve").count, 3u);
  const auto periods = tracer_.periods("solve");
  ASSERT_EQ(periods.size(), 2u);
  EXPECT_EQ(periods[0].first, 3u);
  EXPECT_EQ(periods[0].second.count, 2u);
  EXPECT_DOUBLE_EQ(periods[0].second.total_s, 3.0);
  EXPECT_EQ(periods[1].first, 4u);
  EXPECT_DOUBLE_EQ(periods[1].second.total_s, 10.0);
}

TEST_F(TraceSpanTest, RetentionEvictsOldestPeriodsOnly) {
  tracer_.set_period_retention(2);
  for (std::size_t p = 0; p < 5; ++p) {
    tracer_.set_period(p);
    tracer_.record("solve", 1.0);
  }
  const auto periods = tracer_.periods("solve");
  ASSERT_EQ(periods.size(), 2u);
  EXPECT_EQ(periods[0].first, 3u);
  EXPECT_EQ(periods[1].first, 4u);
  // The overall aggregate still covers every period.
  EXPECT_EQ(tracer_.overall("solve").count, 5u);
}

TEST_F(TraceSpanTest, DisabledSpansRecordNothing) {
  set_metrics_enabled(false);
  {
    auto span = tracer_.span("work");
    EXPECT_EQ(span.path(), "");
    EXPECT_DOUBLE_EQ(span.stop(), 0.0);
  }
  tracer_.record("work", 5.0);
  set_metrics_enabled(true);
  EXPECT_TRUE(tracer_.names().empty());
}

TEST_F(TraceSpanTest, DisabledSpanDoesNotBreakNesting) {
  auto outer = tracer_.span("period");
  set_metrics_enabled(false);
  {
    auto inert = tracer_.span("skipped");
  }
  set_metrics_enabled(true);
  // The inert span must not have clobbered the thread's current path.
  auto inner = tracer_.span("solve");
  EXPECT_EQ(inner.path(), "period/solve");
}

TEST_F(TraceSpanTest, WriteJsonContainsPathsAndPeriods) {
  tracer_.set_period(7);
  tracer_.record("period/solve", 1.5);
  std::stringstream out;
  tracer_.write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"period/solve\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"total_s\": 1.5"), std::string::npos);
  EXPECT_NE(json.find("\"periods\": {\"7\""), std::string::npos);
}

TEST_F(TraceSpanTest, ClearDropsSeries) {
  tracer_.record("x", 1.0);
  tracer_.clear();
  EXPECT_TRUE(tracer_.names().empty());
  std::stringstream out;
  tracer_.write_json(out);
  EXPECT_EQ(out.str(), "{}");
}

TEST_F(TraceSpanTest, GlobalTracerIsSingleton) {
  EXPECT_EQ(&global_tracer(), &global_tracer());
}

}  // namespace
}  // namespace edgeslice
