// Chaos tests for the control plane: FaultInjector determinism, MessageBus
// drop/delay/sequencing, and EdgeSliceSystem degraded-mode orchestration
// (carry-forward, staleness freeze, crash/rejoin, RC-L fallback).
#include <sys/wait.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "core/message_bus.h"
#include "core/system.h"
#include "env/service_model.h"

namespace edgeslice::core {
namespace {

bool all_finite(const PeriodResult& result) {
  for (double v : result.performance_sums.data()) {
    if (!std::isfinite(v)) return false;
  }
  for (double v : result.slice_performance) {
    if (!std::isfinite(v)) return false;
  }
  return std::isfinite(result.system_performance);
}

// ---------------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------------

TEST(FaultInjector, EmptyPlanNeverFires) {
  FaultInjector injector{FaultPlan{}};
  EXPECT_FALSE(injector.any_faults());
  for (std::size_t p = 0; p < 20; ++p) {
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_FALSE(injector.ra_crashed(p, j));
      EXPECT_FALSE(injector.drop_rcm(p, j));
      EXPECT_EQ(injector.rcm_delay(p, j), 0u);
      EXPECT_FALSE(injector.drop_rcl(p, j));
      EXPECT_FALSE(injector.cqi_blackout(p, j));
      EXPECT_FALSE(injector.link_failure(p, j));
      EXPECT_DOUBLE_EQ(injector.compute_slowdown(p, j), 1.0);
    }
  }
}

TEST(FaultInjector, ScheduledEventCoversItsWindowOnly) {
  FaultPlan plan;
  plan.events.push_back(FaultEvent{FaultType::RaCrash, 5, 1, 3, 1.0});
  FaultInjector injector{plan};
  EXPECT_TRUE(injector.any_faults());
  EXPECT_FALSE(injector.ra_crashed(4, 1));
  EXPECT_TRUE(injector.ra_crashed(5, 1));
  EXPECT_TRUE(injector.ra_crashed(7, 1));
  EXPECT_FALSE(injector.ra_crashed(8, 1));
  EXPECT_FALSE(injector.ra_crashed(6, 0));  // other RA unaffected
}

TEST(FaultInjector, DecisionsAreDeterministicAndOrderIndependent) {
  FaultPlan plan;
  plan.seed = 42;
  plan.rates.rcm_drop = 0.5;
  plan.rates.rcl_drop = 0.3;
  FaultInjector a{plan};
  FaultInjector b{plan};
  // Query b in reverse order; answers must still match a pointwise.
  std::vector<bool> a_decisions;
  for (std::size_t p = 0; p < 50; ++p) a_decisions.push_back(a.drop_rcm(p, 0));
  for (std::size_t p = 50; p-- > 0;) {
    EXPECT_EQ(b.drop_rcm(p, 0), a_decisions[p]) << "period " << p;
  }
  // Repeated queries are stable.
  for (std::size_t p = 0; p < 50; ++p) EXPECT_EQ(a.drop_rcm(p, 0), a_decisions[p]);
}

TEST(FaultInjector, SeedChangesDecisions) {
  FaultPlan plan;
  plan.rates.rcm_drop = 0.5;
  plan.seed = 1;
  FaultInjector a{plan};
  plan.seed = 2;
  FaultInjector b{plan};
  bool any_difference = false;
  for (std::size_t p = 0; p < 200 && !any_difference; ++p) {
    if (a.drop_rcm(p, 0) != b.drop_rcm(p, 0)) any_difference = true;
  }
  EXPECT_TRUE(any_difference);
}

TEST(FaultInjector, RateTriggeredCrashLastsItsDuration) {
  FaultPlan plan;
  plan.seed = 7;
  plan.rates.ra_crash = 0.1;
  plan.rates.ra_crash_periods = 4;
  FaultInjector injector{plan};
  // Find a trigger period, then check the window extends 4 periods.
  for (std::size_t p = 0; p < 200; ++p) {
    if (!injector.ra_crashed(p, 0)) continue;
    bool freshly_triggered = p == 0 || !injector.ra_crashed(p - 1, 0);
    if (!freshly_triggered) continue;
    EXPECT_TRUE(injector.ra_crashed(p + 1, 0));
    EXPECT_TRUE(injector.ra_crashed(p + 3, 0));
    return;
  }
  FAIL() << "no crash triggered in 200 periods at rate 0.1";
}

TEST(FaultInjector, ValidatesPlan) {
  FaultPlan plan;
  plan.rates.rcm_drop = 1.5;
  EXPECT_THROW(FaultInjector{plan}, std::invalid_argument);
  plan = FaultPlan{};
  plan.rates.compute_slowdown_factor = 0.5;
  EXPECT_THROW(FaultInjector{plan}, std::invalid_argument);
  plan = FaultPlan{};
  plan.events.push_back(FaultEvent{FaultType::RcmDrop, 0, 0, 0, 1.0});  // zero duration
  EXPECT_THROW(FaultInjector{plan}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// MessageBus
// ---------------------------------------------------------------------------

RcMonitoringMessage make_report(std::size_t ra, std::vector<double> sums) {
  RcMonitoringMessage msg;
  msg.ra = ra;
  msg.performance_sums = std::move(sums);
  return msg;
}

std::vector<RcmEnvelope> collect(MessageBus& bus, std::size_t period) {
  std::vector<RcmEnvelope> due;
  bus.collect_reports_into(period, due);
  return due;
}

TEST(MessageBus, LosslessWithoutInjectorAndSequenced) {
  MessageBus bus;
  bus.post_report(0, make_report(0, {-1.0, -2.0}));
  bus.post_report(0, make_report(1, {-3.0, -4.0}));
  const auto due = collect(bus, 0);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(due[0].seq, 0u);
  EXPECT_EQ(due[1].seq, 1u);
  EXPECT_EQ(due[0].message.ra, 0u);
  EXPECT_EQ(bus.in_flight(), 0u);
  EXPECT_TRUE(bus.deliver_coordination(0, RcLearningMessage{0, {-1.0, -1.0}}));
  EXPECT_EQ(bus.stats().rcm_delivered, 2u);
  EXPECT_EQ(bus.stats().rcl_dropped, 0u);
}

TEST(MessageBus, DropsAndCounts) {
  FaultPlan plan;
  plan.events.push_back(FaultEvent{FaultType::RcmDrop, 0, 0, 1, 1.0});
  FaultInjector injector{plan};
  MessageBus bus(&injector);
  bus.post_report(0, make_report(0, {-1.0}));
  bus.post_report(0, make_report(1, {-2.0}));
  const auto due = collect(bus, 0);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].message.ra, 1u);
  EXPECT_EQ(bus.stats().rcm_dropped, 1u);
}

TEST(MessageBus, DelayedReportSurfacesLaterInOrder) {
  FaultPlan plan;
  FaultEvent delay{FaultType::RcmDelay, 0, 0, 1, 2.0};  // RA 0's period-0 report +2
  plan.events.push_back(delay);
  FaultInjector injector{plan};
  MessageBus bus(&injector);
  bus.post_report(0, make_report(0, {-1.0}));
  EXPECT_TRUE(collect(bus, 0).empty());
  EXPECT_EQ(bus.in_flight(), 1u);
  EXPECT_TRUE(collect(bus, 1).empty());
  bus.post_report(2, make_report(0, {-9.0}));
  const auto due = collect(bus, 2);
  ASSERT_EQ(due.size(), 2u);
  // The delayed period-0 report sorts before the fresh period-2 report.
  EXPECT_EQ(due[0].sent_period, 0u);
  EXPECT_EQ(due[1].sent_period, 2u);
  EXPECT_EQ(bus.stats().rcm_delayed, 1u);
}

TEST(MessageBus, RclDropReported) {
  FaultPlan plan;
  plan.events.push_back(FaultEvent{FaultType::RclDrop, 3, 1, 1, 1.0});
  FaultInjector injector{plan};
  MessageBus bus(&injector);
  EXPECT_TRUE(bus.deliver_coordination(3, RcLearningMessage{0, {0.0}}));
  EXPECT_FALSE(bus.deliver_coordination(3, RcLearningMessage{1, {0.0}}));
  EXPECT_EQ(bus.stats().rcl_dropped, 1u);
}

// ---------------------------------------------------------------------------
// EdgeSliceSystem under faults
// ---------------------------------------------------------------------------

class FaultSystemTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kSlices = 2;
  static constexpr std::size_t kRas = 2;

  void build(const SystemConfig& system_config) {
    environments_.clear();
    policies_.clear();
    const auto model =
        std::make_shared<env::DirectServiceModel>(env::prototype_capacity());
    env::RaEnvironmentConfig config;
    config.intervals_per_period = 5;
    for (std::size_t j = 0; j < kRas; ++j) {
      environments_.push_back(std::make_unique<env::RaEnvironment>(
          config,
          std::vector<env::AppProfile>{env::slice1_profile(), env::slice2_profile()},
          model, env::make_queue_power_perf(), Rng(100 + j)));
      policies_.push_back(std::make_unique<TaroPolicy>());
    }
    CoordinatorConfig coordinator;
    coordinator.slices = kSlices;
    coordinator.ras = kRas;
    std::vector<env::RaEnvironment*> env_ptrs;
    std::vector<RaPolicy*> policy_ptrs;
    for (auto& e : environments_) env_ptrs.push_back(e.get());
    for (auto& p : policies_) policy_ptrs.push_back(p.get());
    system_ = std::make_unique<EdgeSliceSystem>(env_ptrs, policy_ptrs, coordinator,
                                                system_config);
  }

  std::vector<std::unique_ptr<env::RaEnvironment>> environments_;
  std::vector<std::unique_ptr<RaPolicy>> policies_;
  std::unique_ptr<EdgeSliceSystem> system_;
};

TEST_F(FaultSystemTest, ZeroFaultPlanMatchesFaultFreeRunExactly) {
  // The message bus must be behavior-neutral: a system wired to an empty
  // FaultPlan reproduces the plain system bit-for-bit.
  build(SystemConfig{});
  const auto baseline = system_->run(6);

  FaultPlan plan;  // no events, zero rates
  FaultInjector injector{plan};
  SystemConfig chaos_config;
  chaos_config.faults = &injector;
  build(chaos_config);
  const auto chaos = system_->run(6);

  ASSERT_EQ(baseline.size(), chaos.size());
  for (std::size_t p = 0; p < baseline.size(); ++p) {
    EXPECT_EQ(baseline[p].performance_sums.data(), chaos[p].performance_sums.data());
    EXPECT_EQ(baseline[p].system_performance, chaos[p].system_performance);
    EXPECT_EQ(chaos[p].crashed_ras, 0u);
    EXPECT_EQ(chaos[p].reports_carried, 0u);
    EXPECT_EQ(chaos[p].columns_frozen, 0u);
    EXPECT_EQ(chaos[p].rcl_losses, 0u);
    EXPECT_EQ(chaos[p].reports_fresh, kRas);
  }
}

TEST_F(FaultSystemTest, CoordinatorSeesExactPeriodSumsThroughTheBus) {
  // The invariant the pre-bus code provided: the coordinator consumes the
  // exact per-period performance sums. Replay them into a standalone
  // coordinator and compare z/y.
  build(SystemConfig{});
  CoordinatorConfig coordinator_config;
  coordinator_config.slices = kSlices;
  coordinator_config.ras = kRas;
  PerformanceCoordinator reference(coordinator_config);
  for (std::size_t p = 0; p < 4; ++p) {
    const auto result = system_->run_period();
    reference.update(result.performance_sums);
    for (std::size_t i = 0; i < kSlices; ++i) {
      for (std::size_t j = 0; j < kRas; ++j) {
        EXPECT_EQ(system_->coordinator().z(i, j), reference.z(i, j));
        EXPECT_EQ(system_->coordinator().y(i, j), reference.y(i, j));
      }
    }
  }
}

TEST_F(FaultSystemTest, DroppedReportIsCarriedForward) {
  FaultPlan plan;
  plan.events.push_back(FaultEvent{FaultType::RcmDrop, 2, 1, 1, 1.0});
  FaultInjector injector{plan};
  SystemConfig config;
  config.faults = &injector;
  build(config);
  system_->run(2);
  const auto result = system_->run_period();  // period 2: RA 1's report lost
  EXPECT_EQ(result.reports_fresh, 1u);
  EXPECT_EQ(result.reports_carried, 1u);
  EXPECT_EQ(result.columns_frozen, 0u);
  EXPECT_TRUE(all_finite(result));
}

TEST_F(FaultSystemTest, PersistentSilenceFreezesColumnsAfterCutoff) {
  FaultPlan plan;
  plan.events.push_back(FaultEvent{FaultType::RcmDrop, 3, 1, 1000, 1.0});
  FaultInjector injector{plan};
  SystemConfig config;
  config.faults = &injector;
  config.max_report_staleness = 2;
  build(config);
  // Periods 0-2 deliver; silence starts at period 3. Staleness exceeds 2
  // from period 5 on (last report sent at period 2).
  std::vector<PeriodResult> results = system_->run(6);
  EXPECT_EQ(results[3].reports_carried, 1u);
  EXPECT_EQ(results[4].reports_carried, 1u);
  EXPECT_EQ(results[5].columns_frozen, 1u);

  // Frozen means frozen: the silent RA's z/y columns stop moving while the
  // live RA's continue to update.
  std::vector<double> z_frozen(kSlices), y_frozen(kSlices);
  for (std::size_t i = 0; i < kSlices; ++i) {
    z_frozen[i] = system_->coordinator().z(i, 1);
    y_frozen[i] = system_->coordinator().y(i, 1);
  }
  const auto later = system_->run(4);
  for (const auto& r : later) EXPECT_EQ(r.columns_frozen, 1u);
  for (std::size_t i = 0; i < kSlices; ++i) {
    EXPECT_EQ(system_->coordinator().z(i, 1), z_frozen[i]);
    EXPECT_EQ(system_->coordinator().y(i, 1), y_frozen[i]);
  }
}

TEST_F(FaultSystemTest, CrashedRaSkipsIntervalsAndRejoins) {
  FaultPlan plan;
  plan.events.push_back(FaultEvent{FaultType::RaCrash, 1, 0, 2, 1.0});
  FaultInjector injector{plan};
  SystemConfig config;
  config.faults = &injector;
  build(config);

  const auto before = system_->run_period();
  EXPECT_EQ(before.crashed_ras, 0u);
  const std::size_t rows_healthy = system_->monitor().records().size();

  const auto down = system_->run(2);  // periods 1-2: RA 0 down
  for (const auto& r : down) {
    EXPECT_EQ(r.crashed_ras, 1u);
    EXPECT_TRUE(all_finite(r));
    for (std::size_t i = 0; i < kSlices; ++i) {
      EXPECT_DOUBLE_EQ(r.performance_sums(i, 0), 0.0);  // nothing served
    }
  }
  // Only the live RA recorded monitoring rows while RA 0 was down.
  EXPECT_EQ(system_->monitor().records().size(), rows_healthy + 2 * 5);

  const auto rejoined = system_->run_period();  // period 3: clean rejoin
  EXPECT_EQ(rejoined.crashed_ras, 0u);
  EXPECT_EQ(rejoined.reports_fresh, kRas);
  EXPECT_TRUE(all_finite(rejoined));
  EXPECT_EQ(system_->period_count(), 4u);
}

TEST_F(FaultSystemTest, RclLossKeepsLastCoordinationVector) {
  FaultPlan plan;
  plan.events.push_back(FaultEvent{FaultType::RclDrop, 1, 0, 1, 1.0});
  FaultInjector injector{plan};
  SystemConfig config;
  config.faults = &injector;
  build(config);
  system_->run_period();
  const std::vector<double> before = environments_[0]->coordination();
  const auto result = system_->run_period();  // period 1: RC-L to RA 0 lost
  EXPECT_EQ(result.rcl_losses, 1u);
  EXPECT_EQ(environments_[0]->coordination(), before);  // fallback: unchanged
  // RA 1 received its push as usual.
  const auto fresh = system_->run_period();
  EXPECT_EQ(fresh.rcl_losses, 0u);
}

TEST_F(FaultSystemTest, SubstrateFaultsDegradeButNeverBreak) {
  // One scenario per substrate fault type, each run to completion.
  const std::vector<FaultEvent> scenarios = {
      {FaultType::CqiBlackout, 2, 0, 3, 1.0},
      {FaultType::LinkFailure, 2, 1, 3, 1.0},
      {FaultType::ComputeSlowdown, 2, 0, 3, 4.0},
  };
  for (const auto& event : scenarios) {
    FaultPlan plan;
    plan.events.push_back(event);
    FaultInjector injector{plan};
    SystemConfig config;
    config.faults = &injector;
    build(config);
    const auto results = system_->run(8);
    EXPECT_EQ(results.size(), 8u);
    for (const auto& r : results) EXPECT_TRUE(all_finite(r));
  }
}

TEST_F(FaultSystemTest, TenPercentDropPlusCrashRestartStaysClose) {
  // Acceptance scenario: 10% RC-M drop + one mid-run crash/restart must
  // complete every period with finite values, and keep SLA satisfaction
  // (fraction of (period, slice) pairs whose network-wide performance
  // meets u_min) within 15% of the fault-free run.
  const std::size_t periods = 30;
  build(SystemConfig{});
  const auto baseline = system_->run(periods);

  FaultPlan plan;
  plan.seed = 2026;
  plan.rates.rcm_drop = 0.10;
  plan.events.push_back(FaultEvent{FaultType::RaCrash, 12, 1, 3, 1.0});
  FaultInjector injector{plan};
  SystemConfig config;
  config.faults = &injector;
  build(config);
  const auto chaos = system_->run(periods);

  ASSERT_EQ(chaos.size(), periods);
  const auto& u_min = system_->coordinator().config().u_min;
  auto sla_fraction = [&](const std::vector<PeriodResult>& results) {
    std::size_t met = 0;
    for (const auto& r : results) {
      for (std::size_t i = 0; i < kSlices; ++i) {
        double total = 0.0;
        for (std::size_t j = 0; j < kRas; ++j) total += r.performance_sums(i, j);
        if (total >= u_min[i] - 1e-9) ++met;
      }
    }
    return static_cast<double>(met) / static_cast<double>(results.size() * kSlices);
  };
  for (const auto& r : chaos) EXPECT_TRUE(all_finite(r));
  EXPECT_NEAR(sla_fraction(chaos), sla_fraction(baseline), 0.15);
}

TEST_F(FaultSystemTest, CombinedFaultsNeverProduceNaNs) {
  FaultPlan plan;
  plan.seed = 99;
  plan.rates.rcm_drop = 0.2;
  plan.rates.rcm_delay = 0.2;
  plan.rates.rcm_delay_periods = 2;
  plan.rates.rcl_drop = 0.2;
  plan.rates.ra_crash = 0.05;
  plan.rates.ra_crash_periods = 2;
  plan.rates.cqi_blackout = 0.1;
  plan.rates.link_failure = 0.1;
  plan.rates.compute_slowdown = 0.1;
  plan.rates.compute_slowdown_factor = 3.0;
  FaultInjector injector{plan};
  SystemConfig config;
  config.faults = &injector;
  build(config);
  const auto results = system_->run(40);
  EXPECT_EQ(results.size(), 40u);
  for (const auto& r : results) {
    EXPECT_TRUE(all_finite(r));
    for (std::size_t i = 0; i < kSlices; ++i) {
      for (std::size_t j = 0; j < kRas; ++j) {
        EXPECT_TRUE(std::isfinite(system_->coordinator().z(i, j)));
        EXPECT_TRUE(std::isfinite(system_->coordinator().y(i, j)));
      }
    }
  }
  EXPECT_EQ(system_->period_count(), 40u);
}

TEST_F(FaultSystemTest, ChaosRunIsBitReproducible) {
  FaultPlan plan;
  plan.seed = 7;
  plan.rates.rcm_drop = 0.15;
  plan.rates.rcl_drop = 0.1;
  plan.rates.ra_crash = 0.05;
  plan.rates.ra_crash_periods = 2;

  auto run_once = [&]() {
    FaultInjector injector{plan};
    SystemConfig config;
    config.faults = &injector;
    build(config);
    return system_->run(20);
  };
  const auto first = run_once();
  const auto second = run_once();
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t p = 0; p < first.size(); ++p) {
    EXPECT_EQ(first[p].performance_sums.data(), second[p].performance_sums.data());
    EXPECT_EQ(first[p].system_performance, second[p].system_performance);
    EXPECT_EQ(first[p].crashed_ras, second[p].crashed_ras);
    EXPECT_EQ(first[p].reports_fresh, second[p].reports_fresh);
    EXPECT_EQ(first[p].rcl_losses, second[p].rcl_losses);
  }
}

// ---------------------------------------------------------------------------
// Chaos harness + flight recorder (subprocess tests against the real
// ablation_fault_tolerance binary; EDGESLICE_CHAOS_BENCH_PATH is injected
// by the build).
// ---------------------------------------------------------------------------
#ifdef EDGESLICE_CHAOS_BENCH_PATH

/// Read `path` and assert every line is a complete flight-recorder JSON
/// object; returns the parsed-ish lines for further checks.
std::vector<std::string> require_valid_jsonl(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing dump " << path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    EXPECT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
    EXPECT_NE(line.find("\"seq\": "), std::string::npos) << line;
    EXPECT_NE(line.find("\"kind\": \""), std::string::npos) << line;
    lines.push_back(line);
  }
  return lines;
}

bool line_is_fault_event(const std::string& line) {
  for (const char* kind :
       {"\"kind\": \"rcm.dropped\"", "\"kind\": \"rcm.delayed\"",
        "\"kind\": \"rcl.dropped\"", "\"kind\": \"fault.ra_crash\"",
        "\"kind\": \"fault.cqi_blackout\"", "\"kind\": \"fault.link_failure\"",
        "\"kind\": \"fault.compute_slowdown\""}) {
    if (line.find(kind) != std::string::npos) return true;
  }
  return false;
}

TEST(ChaosHarness, CleanRunDumpsFlightRecorderJsonl) {
  const std::string dump = ::testing::TempDir() + "chaos_events.jsonl";
  std::remove(dump.c_str());
  const std::string command = std::string(EDGESLICE_CHAOS_BENCH_PATH) +
                              " --periods 2 --events-out " + dump +
                              " > /dev/null 2>&1";
  const int status = std::system(command.c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  const auto lines = require_valid_jsonl(dump);
  ASSERT_FALSE(lines.empty());
  // The scenario table schedules RA crashes and message loss, so the
  // window must contain injected-fault events.
  std::size_t faults = 0;
  for (const auto& line : lines) {
    if (line_is_fault_event(line)) ++faults;
  }
  EXPECT_GT(faults, 0u);
  std::remove(dump.c_str());
}

TEST(ChaosHarness, ForcedAbortDumpsFaultEventWithPrecedingWindow) {
  // Acceptance: a forced abort mid-chaos must leave a JSONL dump holding
  // an injected-fault event preceded by >= 64 events of context.
  const std::string dump = ::testing::TempDir() + "chaos_crash.jsonl";
  std::remove(dump.c_str());
  const std::string command = std::string(EDGESLICE_CHAOS_BENCH_PATH) +
                              " --periods 15 --events-out " + dump +
                              " --crash-at-period 45 > /dev/null 2>&1";
  const int status = std::system(command.c_str());
  // Dies by SIGABRT; system() reports it as a signaled child.
  ASSERT_TRUE(WIFSIGNALED(status) ||
              (WIFEXITED(status) && WEXITSTATUS(status) != 0));
  const auto lines = require_valid_jsonl(dump);
  ASSERT_GE(lines.size(), 65u);
  std::size_t last_fault = 0;
  bool any_fault = false;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (line_is_fault_event(lines[i])) {
      last_fault = i;
      any_fault = true;
    }
  }
  ASSERT_TRUE(any_fault);
  EXPECT_GE(last_fault, 64u);
  std::remove(dump.c_str());
}

#endif  // EDGESLICE_CHAOS_BENCH_PATH

}  // namespace
}  // namespace edgeslice::core
