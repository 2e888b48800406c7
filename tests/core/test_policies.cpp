#include "core/policies.h"

#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "env/service_model.h"
#include "rl/ddpg.h"

namespace edgeslice::core {
namespace {

env::RaEnvironment make_env(std::uint64_t seed = 1) {
  const auto model =
      std::make_shared<env::DirectServiceModel>(env::prototype_capacity());
  return env::RaEnvironment({}, {env::slice1_profile(), env::slice2_profile()}, model,
                            env::make_queue_power_perf(), Rng(seed));
}

TEST(TaroPolicy, EqualSplitWhenQueuesEmpty) {
  auto environment = make_env();
  TaroPolicy taro;
  const auto action = taro.decide(environment);
  ASSERT_EQ(action.size(), 6u);
  for (double a : action) EXPECT_DOUBLE_EQ(a, 0.5);
}

TEST(TaroPolicy, ProportionalToQueueLengths) {
  auto environment = make_env();
  // Load the queues unevenly: let arrivals accumulate with zero service for
  // slice-specific rates.
  environment.set_arrival_rates({30.0, 10.0});
  environment.step(std::vector<double>(6, 0.0));
  const double l0 = static_cast<double>(environment.queue(0).length);
  const double l1 = static_cast<double>(environment.queue(1).length);
  ASSERT_GT(l0 + l1, 0.0);
  TaroPolicy taro;
  const auto action = taro.decide(environment);
  for (std::size_t k = 0; k < env::kResources; ++k) {
    EXPECT_NEAR(action[0 * 3 + k], l0 / (l0 + l1), 1e-12);
    EXPECT_NEAR(action[1 * 3 + k], l1 / (l0 + l1), 1e-12);
  }
  // TARO never over-subscribes.
  for (std::size_t k = 0; k < env::kResources; ++k) {
    EXPECT_NEAR(action[k] + action[3 + k], 1.0, 1e-12);
  }
}

TEST(TaroPolicy, SameShareForAllResources) {
  // TARO's defining limitation: it cannot differentiate resource domains.
  auto environment = make_env();
  environment.set_arrival_rates({20.0, 5.0});
  environment.step(std::vector<double>(6, 0.0));
  TaroPolicy taro;
  const auto action = taro.decide(environment);
  EXPECT_DOUBLE_EQ(action[0], action[1]);
  EXPECT_DOUBLE_EQ(action[1], action[2]);
}

TEST(EqualSharePolicy, UniformSplit) {
  auto environment = make_env();
  EqualSharePolicy policy;
  const auto action = policy.decide(environment);
  for (double a : action) EXPECT_DOUBLE_EQ(a, 0.5);
  EXPECT_EQ(policy.name(), "EqualShare");
}

TEST(LearnedPolicy, NullAgentThrows) {
  EXPECT_THROW(LearnedPolicy(nullptr, true), std::invalid_argument);
}

TEST(LearnedPolicy, DecideUsesAgentAction) {
  auto environment = make_env();
  Rng rng(2);
  rl::DdpgConfig config;
  config.base.state_dim = environment.state_dim();
  config.base.action_dim = environment.action_dim();
  config.base.hidden = 16;
  const auto agent = std::make_shared<rl::Ddpg>(config, rng);
  LearnedPolicy policy(agent, /*learn=*/false);
  const auto action = policy.decide(environment);
  EXPECT_EQ(action, agent->act(environment.state(), false));
  EXPECT_NE(policy.name().find("DDPG"), std::string::npos);
}

TEST(LearnedPolicy, FeedbackTrainsOnlyWhenLearning) {
  auto environment = make_env();
  Rng rng(3);
  rl::DdpgConfig config;
  config.base.state_dim = environment.state_dim();
  config.base.action_dim = environment.action_dim();
  config.base.hidden = 16;
  config.warmup = 1;
  config.batch_size = 4;
  const auto agent = std::make_shared<rl::Ddpg>(config, rng);
  LearnedPolicy policy(agent, /*learn=*/true);

  for (int t = 0; t < 5; ++t) {
    const auto action = policy.decide(environment);
    policy.feedback(environment.step(action));
  }
  EXPECT_GT(agent->replay().size(), 0u);
  const std::size_t trained = agent->update_count();
  EXPECT_GT(trained, 0u);

  policy.set_learning(false);
  const auto action = policy.decide(environment);
  policy.feedback(environment.step(action));
  EXPECT_EQ(agent->update_count(), trained);  // no further updates
}

}  // namespace
}  // namespace edgeslice::core
