// End-to-end checks of the observability layer: a small system run must
// populate the global registry and tracer, and orchestration results must
// be bit-identical with metrics enabled or disabled, at any thread count.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace_span.h"
#include "compute/computing_manager.h"
#include "core/system.h"
#include "core/training.h"
#include "env/service_model.h"
#include "obs/event_log.h"
#include "obs/sla_watchdog.h"
#include "obs/telemetry_server.h"
#include "radio/radio_manager.h"
#include "rl/ddpg.h"
#include "transport/transport_manager.h"

namespace edgeslice::core {
namespace {

class ObservabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    global_metrics().clear();
    global_tracer().clear();
    obs::global_event_log().clear();
    set_metrics_enabled(true);
  }
  void TearDown() override {
    set_metrics_enabled(true);
    global_metrics().clear();
    global_tracer().clear();
    obs::global_event_log().clear();
  }
};

struct Stack {
  std::vector<std::unique_ptr<env::RaEnvironment>> environments;
  std::vector<std::unique_ptr<RaPolicy>> policies;

  std::vector<env::RaEnvironment*> env_ptrs() {
    std::vector<env::RaEnvironment*> out;
    for (auto& e : environments) out.push_back(e.get());
    return out;
  }
  std::vector<RaPolicy*> policy_ptrs() {
    std::vector<RaPolicy*> out;
    for (auto& p : policies) out.push_back(p.get());
    return out;
  }
};

Stack make_stack(std::size_t ras) {
  const auto model =
      std::make_shared<env::DirectServiceModel>(env::prototype_capacity());
  env::RaEnvironmentConfig config;
  config.intervals_per_period = 4;
  Stack stack;
  for (std::size_t j = 0; j < ras; ++j) {
    stack.environments.push_back(std::make_unique<env::RaEnvironment>(
        config,
        std::vector<env::AppProfile>{env::slice1_profile(), env::slice2_profile()},
        model, env::make_queue_power_perf(), Rng(100 + j)));
    stack.policies.push_back(std::make_unique<TaroPolicy>());
  }
  return stack;
}

CoordinatorConfig coordinator_config(std::size_t ras) {
  CoordinatorConfig config;
  config.slices = 2;
  config.ras = ras;
  return config;
}

std::vector<double> run_periods(std::size_t periods, ThreadPool* pool) {
  Stack stack = make_stack(2);
  SystemConfig system_config;
  system_config.pool = pool;
  EdgeSliceSystem system(stack.env_ptrs(), stack.policy_ptrs(),
                         coordinator_config(2), system_config);
  std::vector<double> out;
  for (const auto& result : system.run(periods)) {
    out.push_back(result.system_performance);
  }
  return out;
}

TEST_F(ObservabilityTest, SystemRunPopulatesMetricsAndSpans) {
  Stack stack = make_stack(2);
  EdgeSliceSystem system(stack.env_ptrs(), stack.policy_ptrs(),
                         coordinator_config(2));
  system.run(3);

  auto& metrics = global_metrics();
  EXPECT_EQ(metrics.counter("system.periods").value(), 3u);
  EXPECT_EQ(metrics.counter("coordinator.updates").value(), 3u);
  EXPECT_EQ(metrics.counter("bus.rcm_sent").value(), 6u);  // 2 RAs x 3 periods
  EXPECT_EQ(metrics.counter("monitor.rows_recorded").value(), 24u);  // 2 x 3 x 4
  EXPECT_TRUE(metrics.gauge("system.crashed_ras").written());
  EXPECT_TRUE(metrics.gauge("bus.in_flight").written());
  // Fault-free delivery is same-period: one latency sample per report.
  EXPECT_EQ(metrics.histogram("bus.rcm_latency_periods").count(), 6u);
  EXPECT_DOUBLE_EQ(metrics.histogram("bus.rcm_latency_periods").max(), 0.0);

  auto& tracer = global_tracer();
  EXPECT_EQ(tracer.overall("system.period").count, 3u);
  EXPECT_EQ(tracer.overall("system.period/coordinate").count, 3u);
  EXPECT_EQ(
      tracer.overall("system.period/coordinate/coordinator.solve").count, 3u);
  EXPECT_EQ(tracer.overall("system.ra_intervals").count, 6u);
  // Per-period aggregation keyed by the running period index.
  std::size_t period_2_count = 0;
  for (const auto& [period, stats] : tracer.periods("system.period")) {
    if (period == 2) period_2_count = stats.count;
  }
  EXPECT_EQ(period_2_count, 1u);
}

TEST_F(ObservabilityTest, SubstrateManagersWriteUtilizationGauges) {
  // The three virtual-resource managers (prototype stack) report their
  // granted-capacity fractions on every reconfiguration.
  Rng rng(1);
  radio::RadioManagerConfig radio_config;  // 5 MHz -> 25 PRBs
  radio::RadioManager radio(radio_config, rng);
  radio.set_slice_share(0, 0.5);
  radio.set_slice_share(1, 0.25);
  // floor(0.5*25) + floor(0.25*25) = 12 + 6 of 25 PRBs.
  EXPECT_DOUBLE_EQ(global_metrics().gauge("radio.prb_utilization").value(), 18.0 / 25.0);

  transport::TransportManagerConfig transport_config;
  transport::TransportManager transport(transport_config);
  transport.set_slice_share(0, 0.6);
  transport.set_slice_share(1, 0.2);
  EXPECT_DOUBLE_EQ(global_metrics().gauge("transport.rate_utilization").value(), 0.8);
  EXPECT_EQ(global_metrics().counter("transport.reconfigurations").value(), 2u);

  compute::ComputingManagerConfig compute_config;
  compute::ComputingManager computing(compute_config);
  computing.set_slice_share(0, 0.5);
  const double expected =
      static_cast<double>(computing.slice_threads(0)) /
      static_cast<double>(compute_config.gpu.total_threads);
  EXPECT_DOUBLE_EQ(global_metrics().gauge("compute.thread_utilization").value(),
                   expected);
}

TEST_F(ObservabilityTest, ResultsBitIdenticalWithMetricsDisabled) {
  const auto with_metrics = run_periods(4, nullptr);
  global_metrics().clear();
  global_tracer().clear();
  set_metrics_enabled(false);
  const auto without_metrics = run_periods(4, nullptr);
  set_metrics_enabled(true);
  ASSERT_EQ(with_metrics.size(), without_metrics.size());
  for (std::size_t p = 0; p < with_metrics.size(); ++p) {
    EXPECT_EQ(with_metrics[p], without_metrics[p]) << "period " << p;
  }
  // Nothing was recorded while disabled.
  EXPECT_EQ(global_metrics().counter("system.periods").value(), 0u);
  EXPECT_EQ(global_tracer().names().size(), 0u);
}

TEST_F(ObservabilityTest, ResultsBitIdenticalAcrossThreadCountsAndMetrics) {
  const auto reference = run_periods(3, nullptr);
  for (const std::size_t threads : {2u, 4u}) {
    ThreadPool pool(threads);
    const auto parallel_on = run_periods(3, &pool);
    set_metrics_enabled(false);
    const auto parallel_off = run_periods(3, &pool);
    set_metrics_enabled(true);
    ASSERT_EQ(parallel_on.size(), reference.size());
    for (std::size_t p = 0; p < reference.size(); ++p) {
      EXPECT_EQ(parallel_on[p], reference[p])
          << "threads=" << threads << " period " << p;
      EXPECT_EQ(parallel_off[p], reference[p])
          << "threads=" << threads << " period " << p << " (metrics off)";
    }
  }
}

TEST_F(ObservabilityTest, TrainingPopulatesLearningMetrics) {
  const auto model =
      std::make_shared<env::DirectServiceModel>(env::prototype_capacity());
  env::RaEnvironmentConfig env_cfg;
  env_cfg.intervals_per_period = 10;
  env::RaEnvironment environment(
      env_cfg, {env::slice1_profile(), env::slice2_profile()}, model,
      env::make_queue_power_perf(), Rng(1));
  Rng rng(2);
  rl::DdpgConfig agent_cfg;
  agent_cfg.base.state_dim = environment.state_dim();
  agent_cfg.base.action_dim = environment.action_dim();
  agent_cfg.base.hidden = 32;
  agent_cfg.batch_size = 32;
  agent_cfg.warmup = 64;
  rl::Ddpg agent(agent_cfg, rng);
  TrainingConfig training;
  training.steps = 150;  // past warmup, so train_batch runs
  training.validation_every = 0;
  train_agent(agent, environment, training, rng);

  auto& metrics = global_metrics();
  EXPECT_EQ(metrics.counter("train.steps").value(), 150u);
  EXPECT_TRUE(metrics.gauge("train.final_mean_reward").written());
  EXPECT_GT(metrics.counter("ddpg.train_batches").value(), 0u);
  EXPECT_TRUE(metrics.gauge("ddpg.critic_loss").written());
  EXPECT_TRUE(metrics.gauge("ddpg.replay_occupancy").written());
  EXPECT_GT(metrics.gauge("ddpg.replay_occupancy").value(), 0.0);
  EXPECT_TRUE(metrics.gauge("ddpg.exploration_sigma").written());
  EXPECT_EQ(global_tracer().overall("train.agent").count, 1u);
  const auto batches = global_tracer().overall("train.agent/ddpg.train_batch");
  EXPECT_EQ(batches.count, metrics.counter("ddpg.train_batches").value());
}

std::vector<double> run_periods_full_telemetry(std::size_t periods, ThreadPool* pool) {
  Stack stack = make_stack(2);
  obs::SlaWatchdog watchdog = obs::SlaWatchdog::from_u_min({-50.0, -50.0});
  SystemConfig system_config;
  system_config.pool = pool;
  system_config.watchdog = &watchdog;
  EdgeSliceSystem system(stack.env_ptrs(), stack.policy_ptrs(),
                         coordinator_config(2), system_config);
  std::vector<double> out;
  for (const auto& result : system.run(periods)) {
    out.push_back(result.system_performance);
  }
  return out;
}

TEST_F(ObservabilityTest, ResultsBitIdenticalWithFullTelemetryPlane) {
  // The whole plane at once — SLA watchdog attached, flight recorder
  // live, HTTP server scraping concurrently — against a metrics-disabled
  // run, at 1/2/4 threads. Orchestration must be bit-identical.
  obs::TelemetryServer server;  // ephemeral port
  ASSERT_TRUE(server.start());
  const auto reference = run_periods(3, nullptr);

  for (const std::size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    ThreadPool* pool_ptr = threads == 1 ? nullptr : &pool;
    const auto with_telemetry = run_periods_full_telemetry(3, pool_ptr);
    set_metrics_enabled(false);
    const auto without = run_periods_full_telemetry(3, pool_ptr);
    set_metrics_enabled(true);
    ASSERT_EQ(with_telemetry.size(), reference.size());
    for (std::size_t p = 0; p < reference.size(); ++p) {
      EXPECT_EQ(with_telemetry[p], reference[p])
          << "threads=" << threads << " period " << p;
      EXPECT_EQ(without[p], reference[p])
          << "threads=" << threads << " period " << p << " (telemetry off)";
    }
  }
  server.stop();
  // The plane did observe the runs: periods counted, watchdog published.
  EXPECT_GT(global_metrics().counter("system.periods").value(), 0u);
  EXPECT_TRUE(global_metrics().gauge("sla.margin.slice0").written());
}

TEST_F(ObservabilityTest, TrainingBitIdenticalWithTelemetryDisabled) {
  // train_agents must not be steered by the recorder/registry either:
  // identical reward and validation histories with telemetry on and off.
  const auto train_once = [] {
    const auto model =
        std::make_shared<env::DirectServiceModel>(env::prototype_capacity());
    env::RaEnvironmentConfig env_cfg;
    env_cfg.intervals_per_period = 10;
    env::RaEnvironment environment(
        env_cfg, {env::slice1_profile(), env::slice2_profile()}, model,
        env::make_queue_power_perf(), Rng(1));
    Rng rng(2);
    rl::DdpgConfig agent_cfg;
    agent_cfg.base.state_dim = environment.state_dim();
    agent_cfg.base.action_dim = environment.action_dim();
    agent_cfg.base.hidden = 16;
    agent_cfg.batch_size = 16;
    agent_cfg.warmup = 32;
    rl::Ddpg agent(agent_cfg, rng);
    TrainingConfig training;
    training.steps = 120;
    training.validation_every = 40;  // exercises the checkpoint event path
    return train_agent(agent, environment, training, rng);
  };
  const TrainingResult on = train_once();
  const std::uint64_t recorded_on = obs::global_event_log().recorded();
  set_metrics_enabled(false);
  const TrainingResult off = train_once();
  set_metrics_enabled(true);
  ASSERT_EQ(on.reward_history.size(), off.reward_history.size());
  for (std::size_t i = 0; i < on.reward_history.size(); ++i) {
    EXPECT_EQ(on.reward_history[i], off.reward_history[i]) << "step " << i;
  }
  ASSERT_EQ(on.validation_history.size(), off.validation_history.size());
  for (std::size_t i = 0; i < on.validation_history.size(); ++i) {
    EXPECT_EQ(on.validation_history[i], off.validation_history[i]);
  }
  EXPECT_EQ(on.best_validation_score, off.best_validation_score);
  // The enabled run recorded validation checkpoints; the disabled one
  // recorded nothing further.
  EXPECT_GT(recorded_on, 0u);
  EXPECT_EQ(obs::global_event_log().recorded(), recorded_on);
}

TEST_F(ObservabilityTest, SystemRunFeedsTheFlightRecorderAndWatchdog) {
  Stack stack = make_stack(2);
  obs::SlaWatchdog watchdog = obs::SlaWatchdog::from_u_min({-50.0, -50.0});
  SystemConfig system_config;
  system_config.watchdog = &watchdog;
  EdgeSliceSystem system(stack.env_ptrs(), stack.policy_ptrs(),
                         coordinator_config(2), system_config);
  system.run(3);
  EXPECT_EQ(watchdog.periods_evaluated(), 3u);
  // Fault-free run: every delivered RC-M report becomes an event, with
  // the running period stamped by the system.
  const auto events = obs::global_event_log().snapshot();
  std::size_t delivered = 0;
  for (const auto& e : events) {
    if (e.kind == obs::EventKind::RcmDelivered) {
      ++delivered;
      EXPECT_LT(e.period, 3u);
      EXPECT_LT(e.ra, 2u);
    }
  }
  EXPECT_EQ(delivered, 6u);  // 2 RAs x 3 periods
}

TEST_F(ObservabilityTest, PoolRunRecordsQueueWaitSpans) {
  ThreadPool pool(3);
  run_periods(2, &pool);
  EXPECT_EQ(global_tracer().overall("system.pool_queue_wait").count, 4u);
  EXPECT_EQ(global_tracer().overall("system.ra_intervals").count, 4u);
}

}  // namespace
}  // namespace edgeslice::core
