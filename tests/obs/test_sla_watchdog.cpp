// SLA watchdog tests: violation accounting, the EWMA anomaly score's
// rise/decay, metric publication, and flight-recorder events.
#include "obs/sla_watchdog.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "common/metrics.h"
#include "obs/event_log.h"

namespace edgeslice::obs {
namespace {

class SlaWatchdogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_metrics_enabled(true);
    edgeslice::global_metrics().clear();
    global_event_log().clear();
  }
  void TearDown() override {
    set_metrics_enabled(true);
    edgeslice::global_metrics().clear();
    global_event_log().clear();
  }
};

TEST_F(SlaWatchdogTest, CountsViolationsPerSlice) {
  SlaWatchdog watchdog({SloSpec{-50.0, ""}, SloSpec{-50.0, ""}});
  watchdog.evaluate(0, {-40.0, -60.0}, {});  // slice 1 violates
  watchdog.evaluate(1, {-55.0, -45.0}, {});  // slice 0 violates
  watchdog.evaluate(2, {-10.0, -10.0}, {});  // healthy
  EXPECT_EQ(watchdog.periods_evaluated(), 3u);
  EXPECT_EQ(watchdog.violations(0), 1u);
  EXPECT_EQ(watchdog.violations(1), 1u);
  EXPECT_EQ(watchdog.total_violations(), 2u);
  EXPECT_DOUBLE_EQ(watchdog.violation_rate(0), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(watchdog.violation_rate(1), 1.0 / 3.0);
}

TEST_F(SlaWatchdogTest, ExactFloorIsNotAViolation) {
  // Same 1e-9 tolerance the coordinator's sla_satisfied() uses.
  SlaWatchdog watchdog({SloSpec{-50.0, ""}});
  watchdog.evaluate(0, {-50.0}, {});
  EXPECT_EQ(watchdog.total_violations(), 0u);
  watchdog.evaluate(1, {-50.0 - 1e-6}, {});
  EXPECT_EQ(watchdog.total_violations(), 1u);
}

TEST_F(SlaWatchdogTest, FromUminBuildsOneSpecPerSlice) {
  const SlaWatchdog watchdog = SlaWatchdog::from_u_min({-50.0, -20.0, 0.0});
  ASSERT_EQ(watchdog.slice_count(), 3u);
  EXPECT_DOUBLE_EQ(watchdog.spec(0).u_min, -50.0);
  EXPECT_DOUBLE_EQ(watchdog.spec(1).u_min, -20.0);
  EXPECT_DOUBLE_EQ(watchdog.spec(2).u_min, 0.0);
}

TEST_F(SlaWatchdogTest, AnomalyScoreRisesUnderBreachAndDecaysAfterRecovery) {
  SlaWatchdogConfig config;
  config.anomaly_alpha = 0.5;
  SlaWatchdog watchdog({SloSpec{-50.0, ""}}, config);
  EXPECT_DOUBLE_EQ(watchdog.anomaly_score(0), 0.0);
  // Sustained breach of depth 25 -> normalized shortfall 25/50 = 0.5.
  watchdog.evaluate(0, {-75.0}, {});
  EXPECT_DOUBLE_EQ(watchdog.anomaly_score(0), 0.25);  // 0 + 0.5*(0.5-0)
  watchdog.evaluate(1, {-75.0}, {});
  EXPECT_DOUBLE_EQ(watchdog.anomaly_score(0), 0.375);
  const double peak = watchdog.anomaly_score(0);
  // Recovery: score decays geometrically toward zero.
  watchdog.evaluate(2, {-10.0}, {});
  EXPECT_DOUBLE_EQ(watchdog.anomaly_score(0), peak * 0.5);
  watchdog.evaluate(3, {-10.0}, {});
  EXPECT_DOUBLE_EQ(watchdog.anomaly_score(0), peak * 0.25);
}

TEST_F(SlaWatchdogTest, PublishesMetricsAndEmitsViolationEvents) {
  SlaWatchdog watchdog({SloSpec{-50.0, ""}, SloSpec{-50.0, "urllc"}});
  watchdog.evaluate(9, {-70.0, -30.0}, {});
  auto& metrics = edgeslice::global_metrics();
  EXPECT_EQ(metrics.counter("sla.violations").value(), 1u);
  EXPECT_EQ(metrics.counter("sla.violations.slice0").value(), 1u);
  EXPECT_DOUBLE_EQ(metrics.gauge("sla.violation_rate.slice0").value(), 1.0);
  EXPECT_DOUBLE_EQ(metrics.gauge("sla.margin.slice0").value(), -20.0);
  // Named slices export under their name, not the index.
  EXPECT_DOUBLE_EQ(metrics.gauge("sla.margin.urllc").value(), 20.0);
  EXPECT_DOUBLE_EQ(metrics.gauge("sla.violation_rate.urllc").value(), 0.0);

  const auto events = global_event_log().snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, EventKind::SlaViolation);
  EXPECT_EQ(events[0].period, 9u);
  EXPECT_EQ(events[0].slice, 0u);
  EXPECT_DOUBLE_EQ(events[0].value, 20.0);  // shortfall
}

TEST_F(SlaWatchdogTest, InternalCountersWorkWithMetricsDisabled) {
  // The registry/event emissions no-op when telemetry is off, but the
  // watchdog's own accounting (used by the chaos bench's cross-check)
  // keeps working.
  SlaWatchdog watchdog({SloSpec{-50.0, ""}});
  set_metrics_enabled(false);
  watchdog.evaluate(0, {-80.0}, {});
  set_metrics_enabled(true);
  EXPECT_EQ(watchdog.total_violations(), 1u);
  EXPECT_EQ(edgeslice::global_metrics().counter("sla.violations").value(), 0u);
  EXPECT_TRUE(global_event_log().snapshot().empty());
}

TEST_F(SlaWatchdogTest, RejectsBadConfigurations) {
  EXPECT_THROW(SlaWatchdog({}), std::invalid_argument);
  SlaWatchdogConfig bad;
  bad.anomaly_alpha = 0.0;
  EXPECT_THROW(SlaWatchdog({SloSpec{}}, bad), std::invalid_argument);
  bad.anomaly_alpha = 1.5;
  EXPECT_THROW(SlaWatchdog({SloSpec{}}, bad), std::invalid_argument);
  SlaWatchdog watchdog({SloSpec{}});
  EXPECT_THROW(watchdog.evaluate(0, {1.0, 2.0}, {}), std::invalid_argument);
}

}  // namespace
}  // namespace edgeslice::obs
