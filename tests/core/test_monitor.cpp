#include "core/monitor.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <memory>

#include "common/fault.h"
#include "common/thread_pool.h"
#include "core/policies.h"
#include "core/system.h"

namespace edgeslice::core {
namespace {

env::StepResult make_step(std::vector<double> perf, std::vector<double> queues) {
  env::StepResult result;
  result.performance = std::move(perf);
  result.queue_lengths = std::move(queues);
  result.reward = -1.0;
  return result;
}

TEST(Monitor, ValidatesConstruction) {
  EXPECT_THROW(SystemMonitor(0, 1), std::invalid_argument);
  EXPECT_THROW(SystemMonitor(1, 0), std::invalid_argument);
}

TEST(Monitor, RecordsRows) {
  SystemMonitor monitor(2, 2);
  monitor.record(0, 0, 0, make_step({-1, -2}, {1, 2}), {0.5, 0.5, 0.5, 0.5, 0.5, 0.5});
  ASSERT_EQ(monitor.records().size(), 1u);
  EXPECT_EQ(monitor.records()[0].ra, 0u);
  EXPECT_THROW(monitor.record(5, 0, 0, make_step({}, {}), {}), std::out_of_range);
}

TEST(Monitor, RcmReportSumsPeriodPerformance) {
  SystemMonitor monitor(2, 2);
  monitor.record(0, 0, 0, make_step({-1, -2}, {}), {});
  monitor.record(0, 0, 1, make_step({-3, -4}, {}), {});
  monitor.record(0, 1, 2, make_step({-100, -100}, {}), {});  // next period
  monitor.record(1, 0, 0, make_step({-10, -10}, {}), {});    // other RA
  const auto report = monitor.report(0, 0);
  EXPECT_EQ(report.ra, 0u);
  EXPECT_DOUBLE_EQ(report.performance_sums[0], -4.0);
  EXPECT_DOUBLE_EQ(report.performance_sums[1], -6.0);
}

TEST(Monitor, ReportForSkippedPeriodIsZero) {
  // A monitor that recorded nothing for a period (e.g. its RA was down)
  // reports zero sums rather than stale or garbage data.
  SystemMonitor monitor(2, 2);
  monitor.record(0, 0, 0, make_step({-1, -2}, {}), {});
  monitor.record(0, 2, 20, make_step({-7, -8}, {}), {});  // period 1 skipped
  const auto report = monitor.report(0, 1);
  ASSERT_EQ(report.performance_sums.size(), 2u);
  EXPECT_DOUBLE_EQ(report.performance_sums[0], 0.0);
  EXPECT_DOUBLE_EQ(report.performance_sums[1], 0.0);
}

TEST(Monitor, OutOfOrderRecordsStillSumPerPeriod) {
  // Records arriving out of interval/period order (delayed telemetry)
  // must not change a period's report.
  SystemMonitor monitor(2, 1);
  monitor.record(0, 1, 12, make_step({-5, -6}, {}), {});
  monitor.record(0, 0, 3, make_step({-1, -2}, {}), {});  // older period, later arrival
  monitor.record(0, 0, 1, make_step({-3, -4}, {}), {});  // earlier interval, last
  const auto period0 = monitor.report(0, 0);
  EXPECT_DOUBLE_EQ(period0.performance_sums[0], -4.0);
  EXPECT_DOUBLE_EQ(period0.performance_sums[1], -6.0);
  const auto period1 = monitor.report(0, 1);
  EXPECT_DOUBLE_EQ(period1.performance_sums[0], -5.0);
  EXPECT_DOUBLE_EQ(period1.performance_sums[1], -6.0);
}

TEST(Monitor, SystemPerformanceSeriesSumsAcrossRas) {
  SystemMonitor monitor(2, 2);
  monitor.record(0, 0, 0, make_step({-1, -2}, {}), {});
  monitor.record(1, 0, 0, make_step({-3, -4}, {}), {});
  monitor.record(0, 0, 1, make_step({-5, -5}, {}), {});
  const auto series = monitor.system_performance_series();
  ASSERT_EQ(series.size(), 2u);
  EXPECT_DOUBLE_EQ(series[0], -10.0);
  EXPECT_DOUBLE_EQ(series[1], -10.0);
}

TEST(Monitor, SlicePerformanceSeries) {
  SystemMonitor monitor(2, 1);
  monitor.record(0, 0, 0, make_step({-1, -9}, {}), {});
  const auto series = monitor.slice_performance_series();
  ASSERT_EQ(series.size(), 2u);
  EXPECT_DOUBLE_EQ(series[0][0], -1.0);
  EXPECT_DOUBLE_EQ(series[1][0], -9.0);
}

TEST(Monitor, ResourceUsageSeries) {
  SystemMonitor monitor(2, 1);
  monitor.record(0, 0, 0, make_step({-1, -1}, {}), {0.7, 0.6, 0.5, 0.3, 0.4, 0.5});
  const auto radio_s0 = monitor.resource_usage_series(0, 0, 0);
  const auto compute_s1 = monitor.resource_usage_series(0, 1, 2);
  EXPECT_DOUBLE_EQ(radio_s0[0], 0.7);
  EXPECT_DOUBLE_EQ(compute_s1[0], 0.5);
  EXPECT_THROW(monitor.resource_usage_series(0, 0, 9), std::out_of_range);
}

TEST(Monitor, UserAssociationByImsiAndIp) {
  SystemMonitor monitor(2, 1);
  monitor.register_user(UserAssociation{"310170000000001", "10.0.0.1", 0});
  monitor.register_user(UserAssociation{"310170000000002", "10.0.1.1", 1});
  EXPECT_EQ(monitor.slice_of_imsi("310170000000001"), 0u);
  EXPECT_EQ(monitor.user_count(), 2u);
  EXPECT_THROW(monitor.slice_of_imsi("nope"), std::out_of_range);
}

TEST(Monitor, DuplicateIdentityRejected) {
  SystemMonitor monitor(2, 1);
  monitor.register_user(UserAssociation{"imsi-1", "10.0.0.1", 0});
  EXPECT_THROW(monitor.register_user(UserAssociation{"imsi-1", "10.0.0.2", 0}),
               std::invalid_argument);
  EXPECT_THROW(monitor.register_user(UserAssociation{"imsi-2", "10.0.0.1", 0}),
               std::invalid_argument);
}

TEST(Monitor, BadSliceInAssociationRejected) {
  SystemMonitor monitor(2, 1);
  EXPECT_THROW(monitor.register_user(UserAssociation{"x", "y", 7}),
               std::invalid_argument);
}

// Brute-force reference for report(): rescan the full row log, in the
// exact order the pre-rework implementation used.
std::vector<double> scan_report(const SystemMonitor& monitor, std::size_t ra,
                                std::size_t period) {
  std::vector<double> sums(monitor.slices(), 0.0);
  for (const auto& row : monitor.records()) {
    if (row.ra != ra || row.period != period) continue;
    for (std::size_t i = 0; i < sums.size() && i < row.performance.size(); ++i) {
      sums[i] += row.performance[i];
    }
  }
  return sums;
}

TEST(Monitor, ReportMatchesFullScanOnLongLog) {
  // 1000 periods x 2 RAs x 5 intervals. The incremental sums behind
  // report() must be bit-identical to a full-history rescan.
  SystemMonitor monitor(2, 2);
  for (std::size_t period = 0; period < 1000; ++period) {
    for (std::size_t ra = 0; ra < 2; ++ra) {
      for (std::size_t t = 0; t < 5; ++t) {
        const double base = -0.001 * static_cast<double>(period * 10 + ra * 5 + t);
        monitor.record(ra, period, period * 5 + t,
                       make_step({base, base * 0.7}, {}), {});
      }
    }
  }
  for (std::size_t period : {0u, 1u, 499u, 998u, 999u}) {
    for (std::size_t ra = 0; ra < 2; ++ra) {
      const auto report = monitor.report(ra, period);
      const auto expected = scan_report(monitor, ra, period);
      ASSERT_EQ(report.performance_sums.size(), expected.size());
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(report.performance_sums[i], expected[i])
            << "ra " << ra << " period " << period << " slice " << i;
      }
    }
  }
}

TEST(Monitor, ReportDoesNotRescanHistory) {
  // 100k report() calls against a 10k-row log. The old implementation
  // rescanned every row per call (~1e9 row visits, tens of seconds); the
  // O(slices) lookup finishes orders of magnitude inside this bound.
  SystemMonitor monitor(2, 1);
  for (std::size_t period = 0; period < 1000; ++period) {
    for (std::size_t t = 0; t < 10; ++t) {
      monitor.record(0, period, period * 10 + t, make_step({-1.0, -2.0}, {}), {});
    }
  }
  const auto start = std::chrono::steady_clock::now();
  double checksum = 0.0;
  for (std::size_t call = 0; call < 100000; ++call) {
    checksum += monitor.report(0, call % 1000).performance_sums[0];
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_DOUBLE_EQ(checksum, -1.0 * 10 * 100000);
  EXPECT_LT(elapsed, 2.0) << "report() appears to rescan the row log";
}

TEST(Monitor, RetentionCapEvictsOldestRows) {
  SystemMonitor monitor(2, 1);
  monitor.set_retention_cap(100);
  EXPECT_EQ(monitor.retention_cap(), 100u);
  for (std::size_t t = 0; t < 500; ++t) {
    monitor.record(0, t / 10, t, make_step({-1.0, -2.0}, {}), {});
  }
  // Eviction is chunked (amortized O(1)), so the log may briefly exceed
  // the cap by the chunk slack but never by more.
  EXPECT_LE(monitor.records().size(), 125u);
  EXPECT_EQ(monitor.records().size() + monitor.evicted_rows(), 500u);
  // The retained tail is the newest rows, in recording order.
  EXPECT_EQ(monitor.records().back().interval, 499u);
  EXPECT_GT(monitor.records().front().interval, 300u);
}

TEST(Monitor, ReportsSurviveEviction) {
  // Period sums must keep the full history even after their raw rows
  // have been evicted, so RC-M reports stay exact on long runs.
  SystemMonitor monitor(2, 1);
  monitor.set_retention_cap(10);
  for (std::size_t period = 0; period < 100; ++period) {
    monitor.record(0, period, period, make_step({-3.0, -4.0}, {}), {});
  }
  const auto oldest = monitor.report(0, 0);
  EXPECT_DOUBLE_EQ(oldest.performance_sums[0], -3.0);
  EXPECT_DOUBLE_EQ(oldest.performance_sums[1], -4.0);
  EXPECT_GT(monitor.evicted_rows(), 0u);
}

TEST(Monitor, ZeroCapRetainsEverything) {
  SystemMonitor monitor(2, 1);
  for (std::size_t t = 0; t < 300; ++t) {
    monitor.record(0, 0, t, make_step({-1.0, -1.0}, {}), {});
  }
  EXPECT_EQ(monitor.records().size(), 300u);
  EXPECT_EQ(monitor.evicted_rows(), 0u);
}

TEST(Monitor, AddPeriodSumsEqualsRecordingEveryInterval) {
  SystemMonitor by_row(2, 2);
  SystemMonitor by_period(2, 2);
  std::vector<double> sums(2, 0.0);
  for (std::size_t t = 0; t < 7; ++t) {
    const std::vector<double> u{-0.1 * static_cast<double>(t) - 1e-17, -3.0 / (1.0 + t)};
    by_row.record(1, 4, t, make_step(u, {}), {});
    for (std::size_t i = 0; i < 2; ++i) sums[i] += u[i];
  }
  by_period.add_period_sums(1, 4, sums);
  EXPECT_EQ(by_period.report(1, 4).performance_sums, by_row.report(1, 4).performance_sums);
  EXPECT_TRUE(by_period.records().empty());
  EXPECT_THROW(by_period.add_period_sums(2, 4, sums), std::out_of_range);
}

/// report() of every (period, RA) after a small city run: 5 RAs x 3
/// slices under TARO, per-profile grid models, RA crashes and RC-M loss.
/// Odd RAs report U = -service time, whose sums depend on the order of
/// the adds; even RAs report U = -(queue)^2.
std::vector<std::vector<double>> system_reports(std::size_t threads, bool rows) {
  constexpr std::size_t kRas = 5;
  constexpr std::size_t kPeriods = 6;
  const std::vector<env::AppProfile> profiles{env::slice1_profile(), env::slice2_profile(),
                                              env::slice1_profile()};
  const env::DirectServiceModel truth(env::prototype_capacity());
  const auto model =
      std::make_shared<env::PerProfileLinearServiceModel>(profiles, truth, 0.1);
  env::RaEnvironmentConfig env_config;
  env_config.slices = profiles.size();
  env_config.intervals_per_period = 4;
  env_config.arrival_rate = 6.0;
  std::vector<std::unique_ptr<env::RaEnvironment>> environments;
  std::vector<std::unique_ptr<RaPolicy>> policies;
  std::vector<env::RaEnvironment*> env_ptrs;
  std::vector<RaPolicy*> policy_ptrs;
  for (std::size_t j = 0; j < kRas; ++j) {
    environments.push_back(std::make_unique<env::RaEnvironment>(
        env_config, profiles, model,
        j % 2 == 1 ? env::make_neg_service_time_perf() : env::make_queue_power_perf(2.0),
        Rng(70 + j)));
    environments.back()->set_arrival_profiles(
        {{2.0, 12.0, 5.0}, {8.0, 1.0}, {0.0, 6.0 + 2.0 * static_cast<double>(j)}});
    policies.push_back(std::make_unique<TaroPolicy>());
    env_ptrs.push_back(environments.back().get());
    policy_ptrs.push_back(policies.back().get());
  }
  FaultPlan plan;
  plan.seed = 3;
  plan.rates.ra_crash = 0.2;
  plan.rates.rcm_drop = 0.2;
  const FaultInjector faults(plan);
  CoordinatorConfig coordinator;
  coordinator.slices = profiles.size();
  coordinator.ras = kRas;
  SystemConfig config;
  config.faults = &faults;
  ThreadPool pool(threads);
  config.pool = threads > 1 ? &pool : nullptr;
  EdgeSliceSystem system(env_ptrs, policy_ptrs, coordinator, config);
  system.monitor().set_row_recording(rows);
  system.run(kPeriods);
  EXPECT_EQ(system.monitor().records().empty(), !rows);

  std::vector<std::vector<double>> reports;
  for (std::size_t period = 0; period < kPeriods; ++period) {
    for (std::size_t ra = 0; ra < kRas; ++ra) {
      reports.push_back(system.monitor().report(ra, period).performance_sums);
    }
  }
  return reports;
}

TEST(Monitor, SystemReportsAgreeAcrossThreadsAndRowRecording) {
  // With the row log off the system folds each RA's period sums once;
  // with it on, record() folds them interval by interval. Both must give
  // report() bit for bit, sequentially and on a 4-thread pool.
  const auto sequential = system_reports(1, false);
  std::size_t zero = 0;
  std::size_t fractional = 0;
  for (const auto& sums : sequential) {
    zero += sums == std::vector<double>(sums.size(), 0.0);
    fractional += sums[1] != std::floor(sums[1]);
  }
  EXPECT_GT(zero, 0u);  // crashed RA-periods report nothing
  EXPECT_GT(fractional, sequential.size() / 4);
  EXPECT_EQ(system_reports(4, false), sequential);
  EXPECT_EQ(system_reports(1, true), sequential);
  EXPECT_EQ(system_reports(4, true), sequential);
}

}  // namespace
}  // namespace edgeslice::core
