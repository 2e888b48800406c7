#include "core/training.h"

#include <gtest/gtest.h>

#include <memory>

#include "rl/frozen.h"

#include "env/service_model.h"
#include "rl/ddpg.h"

namespace edgeslice::core {
namespace {

env::RaEnvironment make_env(std::uint64_t seed = 1) {
  const auto model =
      std::make_shared<env::DirectServiceModel>(env::prototype_capacity());
  env::RaEnvironmentConfig config;
  config.intervals_per_period = 10;
  return env::RaEnvironment(config, {env::slice1_profile(), env::slice2_profile()}, model,
                            env::make_queue_power_perf(), Rng(seed));
}

std::unique_ptr<rl::Ddpg> make_agent(const env::RaEnvironment& environment, Rng& rng) {
  rl::DdpgConfig config;
  config.base.state_dim = environment.state_dim();
  config.base.action_dim = environment.action_dim();
  config.base.hidden = 48;
  config.batch_size = 48;
  config.warmup = 96;
  config.noise_decay = 0.999;
  config.noise_min = 0.08;
  return std::make_unique<rl::Ddpg>(config, rng);
}

TEST(Training, DimensionMismatchThrows) {
  auto environment = make_env();
  Rng rng(1);
  rl::DdpgConfig config;
  config.base.state_dim = 3;  // wrong
  config.base.action_dim = environment.action_dim();
  rl::Ddpg agent(config, rng);
  TrainingConfig training;
  EXPECT_THROW(train_agent(agent, environment, training, rng), std::invalid_argument);
}

TEST(Training, BadCoordinationRangeThrows) {
  auto environment = make_env();
  Rng rng(2);
  auto agent = make_agent(environment, rng);
  TrainingConfig training;
  training.coordination_low = 0.0;
  training.coordination_high = -1.0;
  EXPECT_THROW(train_agent(*agent, environment, training, rng), std::invalid_argument);
}

TEST(Training, RunsRequestedSteps) {
  auto environment = make_env();
  Rng rng(3);
  auto agent = make_agent(environment, rng);
  TrainingConfig training;
  training.steps = 300;
  const auto result = train_agent(*agent, environment, training, rng);
  EXPECT_EQ(result.steps, 300u);
  EXPECT_EQ(result.reward_history.size(), 3u);  // one entry per 100 steps
  EXPECT_GT(agent->update_count(), 0u);
}

TEST(Training, ImprovesShapedReward) {
  auto environment = make_env(7);
  Rng rng(4);
  auto agent = make_agent(environment, rng);
  TrainingConfig training;
  training.steps = 3500;
  const auto result = train_agent(*agent, environment, training, rng);
  ASSERT_GE(result.reward_history.size(), 5u);
  // Mean of last 3 windows should beat the mean of the first 3.
  double early = 0.0;
  double late = 0.0;
  for (int k = 0; k < 3; ++k) {
    early += result.reward_history[k] / 3.0;
    late += result.reward_history[result.reward_history.size() - 1 - k] / 3.0;
  }
  EXPECT_GT(late, early);
}

TEST(Training, ValidationCheckpointingKeepsBestPolicy) {
  auto environment = make_env(3);
  Rng rng(6);
  auto agent = make_agent(environment, rng);
  TrainingConfig training;
  training.steps = 1500;
  training.validation_every = 300;
  training.validation_intervals = 30;
  const auto result = train_agent(*agent, environment, training, rng);
  ASSERT_TRUE(result.best_policy.has_value());
  ASSERT_FALSE(result.validation_history.empty());
  // The recorded best score is the max of the history.
  double best = result.validation_history.front();
  for (double v : result.validation_history) best = std::max(best, v);
  EXPECT_DOUBLE_EQ(result.best_validation_score, best);
  // The snapshot reproduces (at least) its recorded validation score.
  rl::FrozenActor frozen(*result.best_policy);
  const double replay_score = validate_policy(frozen, environment, -25.0, 30);
  EXPECT_LE(std::abs(replay_score - result.best_validation_score),
            std::abs(result.best_validation_score) * 0.9 + 50.0);
}

TEST(Training, ValidationDisabledByDefault) {
  auto environment = make_env(4);
  Rng rng(7);
  auto agent = make_agent(environment, rng);
  TrainingConfig training;
  training.steps = 300;
  const auto result = train_agent(*agent, environment, training, rng);
  EXPECT_FALSE(result.best_policy.has_value());
  EXPECT_TRUE(result.validation_history.empty());
}

TEST(Training, ValidatePolicyRestoresEnvironmentState) {
  auto environment = make_env(5);
  Rng rng(8);
  auto agent = make_agent(environment, rng);
  environment.set_coordination({-10.0, -20.0});
  validate_policy(*agent, environment, -25.0, 10);
  EXPECT_EQ(environment.coordination(), (std::vector<double>{-10.0, -20.0}));
  EXPECT_EQ(environment.queue(0).length, 0u);  // reset on exit
}

TEST(Training, BoundarySamplingPinsCoordination) {
  auto environment = make_env(9);
  Rng rng(10);
  auto agent = make_agent(environment, rng);
  TrainingConfig training;
  training.steps = 25;
  training.boundary_sample_probability = 1.0;  // always the boundary
  training.coordination_low = -42.0;
  train_agent(*agent, environment, training, rng);
  for (double c : environment.coordination()) EXPECT_DOUBLE_EQ(c, -42.0);
}

TEST(Training, ContinuingModeKeepsQueuesAcrossResamples) {
  auto environment = make_env(11);
  Rng rng(12);
  // An agent that starves the queues: zero training effect needed, so use
  // an untrained agent but give the env no service at all via zero arrival
  // observation — instead simply check that reset is not called by
  // verifying total arrivals accumulate monotonically across resamples.
  auto agent = make_agent(environment, rng);
  TrainingConfig training;
  training.steps = 45;           // several resample boundaries (period = 10)
  training.reset_on_resample = false;
  train_agent(*agent, environment, training, rng);
  // 45 steps of Poisson(10) arrivals with no reset: total arrivals ~ 450.
  EXPECT_GT(environment.queue(0).arrivals + environment.queue(1).arrivals,
            500u);  // both slices combined
}

TEST(Training, EpisodicModeResetsQueues) {
  auto environment = make_env(13);
  Rng rng(14);
  auto agent = make_agent(environment, rng);
  TrainingConfig training;
  training.steps = 45;
  training.reset_on_resample = true;  // default
  train_agent(*agent, environment, training, rng);
  // The last reset happened at step 40; only ~5 steps of arrivals remain
  // in the counters.
  EXPECT_LT(environment.queue(0).arrivals, 150u);
}

TEST(Training, ValidationScoreInvariantToCurrentTrafficRates) {
  // Regression: validate_policy must pin the arrival rate. Before the fix,
  // whatever rates the last traffic resample happened to set leaked into
  // the rollout, so checkpoint scores taken under randomize_traffic were
  // measured under different (incomparable) traffic.
  auto environment_a = make_env(21);
  auto environment_b = make_env(21);
  environment_a.set_arrival_rates({3.0, 4.0});
  environment_b.set_arrival_rates({18.0, 9.0});
  Rng rng(22);
  nn::Mlp actor({environment_a.state_dim(), 24, environment_a.action_dim()},
                nn::Activation::LeakyRelu, nn::Activation::Sigmoid, rng);
  rl::FrozenActor agent(actor);
  const double score_a = validate_policy(agent, environment_a, -25.0, 30);
  const double score_b = validate_policy(agent, environment_b, -25.0, 30);
  EXPECT_DOUBLE_EQ(score_a, score_b);
}

TEST(Training, ValidationScoresComparableAcrossCheckpoints) {
  // Same environment, validated twice with arbitrary training activity in
  // between (rate perturbation + consumed randomness): a frozen policy
  // must score identically at both "checkpoints", otherwise best-policy
  // selection compares noise.
  auto environment = make_env(23);
  Rng rng(24);
  nn::Mlp actor({environment.state_dim(), 24, environment.action_dim()},
                nn::Activation::LeakyRelu, nn::Activation::Sigmoid, rng);
  rl::FrozenActor agent(actor);
  const double first = validate_policy(agent, environment, -25.0, 25, 7.0);

  environment.set_arrival_rates({29.0, 2.5});
  const std::vector<double> action(environment.action_dim(), 0.5);
  for (int t = 0; t < 57; ++t) environment.step(action);

  const double second = validate_policy(agent, environment, -25.0, 25, 7.0);
  EXPECT_DOUBLE_EQ(first, second);
  // The perturbed training state survives validation untouched.
  EXPECT_DOUBLE_EQ(environment.arrival_rate(0), 29.0);
  EXPECT_DOUBLE_EQ(environment.arrival_rate(1), 2.5);
}

TEST(Training, TrafficRandomizationChangesArrivals) {
  auto environment = make_env();
  Rng rng(5);
  auto agent = make_agent(environment, rng);
  TrainingConfig training;
  training.steps = 50;
  training.randomize_traffic = true;
  training.traffic_low = 1.0;
  training.traffic_high = 30.0;
  train_agent(*agent, environment, training, rng);
  // At least one slice's rate should have moved off the default 10.0.
  const bool moved = environment.arrival_rate(0) != 10.0 ||
                     environment.arrival_rate(1) != 10.0;
  EXPECT_TRUE(moved);
}

}  // namespace
}  // namespace edgeslice::core
