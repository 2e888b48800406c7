#include "env/environment.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <sstream>
#include <string>

namespace edgeslice::env {
namespace {

RaEnvironment make_env(RaEnvironmentConfig config = {}, double alpha = 2.0,
                       std::uint64_t seed = 1) {
  const auto model = std::make_shared<DirectServiceModel>(prototype_capacity());
  return RaEnvironment(config, {slice1_profile(), slice2_profile()}, model,
                       make_queue_power_perf(alpha), Rng(seed));
}

std::vector<double> equal_action() { return std::vector<double>(6, 0.5); }

TEST(Environment, DimensionsMatchPaperState) {
  auto environment = make_env();
  // Eq. 13: queue lengths + coordination, one each per slice.
  EXPECT_EQ(environment.state_dim(), 4u);
  EXPECT_EQ(environment.action_dim(), 6u);  // I * K = 2 * 3
  EXPECT_EQ(environment.state().size(), 4u);
}

TEST(Environment, NtVariantDropsTrafficFromState) {
  RaEnvironmentConfig config;
  config.include_traffic_in_state = false;  // EdgeSlice-NT
  auto environment = make_env(config);
  EXPECT_EQ(environment.state_dim(), 2u);
}

TEST(Environment, ValidatesConstruction) {
  const auto model = std::make_shared<DirectServiceModel>(prototype_capacity());
  RaEnvironmentConfig config;
  EXPECT_THROW(RaEnvironment(config, {slice1_profile()}, model, make_queue_power_perf(),
                             Rng(1)),
               std::invalid_argument);
  EXPECT_THROW(RaEnvironment(config, {slice1_profile(), slice2_profile()}, nullptr,
                             make_queue_power_perf(), Rng(1)),
               std::invalid_argument);
}

TEST(Environment, StepValidatesAction) {
  auto environment = make_env();
  EXPECT_THROW(environment.step({0.5, 0.5}), std::invalid_argument);
  EXPECT_THROW(environment.step({2.0, 0, 0, 0, 0, 0}), std::invalid_argument);
}

TEST(Environment, StepRejectsNanAction) {
  // A NaN share would reach the service model's floor-and-cast (undefined
  // behaviour in LocalLinearServiceModel) instead of being refused.
  const DirectServiceModel truth(prototype_capacity());
  const auto local = std::make_shared<PerProfileLinearServiceModel>(
      std::vector<AppProfile>{slice1_profile(), slice2_profile()}, truth, 0.1);
  RaEnvironment environment({}, {slice1_profile(), slice2_profile()}, local,
                            make_queue_power_perf(), Rng(1));
  for (std::size_t k = 0; k < environment.action_dim(); ++k) {
    auto action = equal_action();
    action[k] = std::nan("");
    EXPECT_THROW(environment.step(action), std::invalid_argument) << "element " << k;
  }
  EXPECT_NO_THROW(environment.step(equal_action()));
  EXPECT_THROW(truth.service_time(slice1_profile(), {std::nan(""), 0.5, 0.5}),
               std::invalid_argument);
}

/// Every occurrence of `from`'s bytes in `blob` replaced by `to`'s.
std::string replace_f64(std::string blob, double from, double to) {
  char a[sizeof(double)];
  char b[sizeof(double)];
  std::memcpy(a, &from, sizeof a);
  std::memcpy(b, &to, sizeof b);
  const std::string needle(a, sizeof a);
  std::size_t replaced = 0;
  for (std::size_t at = blob.find(needle); at != std::string::npos;
       at = blob.find(needle, at + sizeof a)) {
    blob.replace(at, sizeof b, b, sizeof b);
    ++replaced;
  }
  EXPECT_GT(replaced, 0u);
  return blob;
}

TEST(Environment, RejectsNonFiniteArrivalRates) {
  // std::poisson_distribution does not return for some huge means, so a
  // non-finite rate must be refused before it reaches a step.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::nan("");
  for (const double bad : {inf, nan, -1.0}) {
    RaEnvironmentConfig config;
    config.arrival_rate = bad;
    EXPECT_THROW(make_env(config), std::invalid_argument);
    auto environment = make_env();
    EXPECT_THROW(environment.set_arrival_rates({1.0, bad}), std::invalid_argument);
    EXPECT_THROW(environment.set_arrival_profiles({{1.0, 2.0}, {bad}}),
                 std::invalid_argument);
  }

  // Blobs: a rate and a profile rate patched to +inf and NaN.
  auto environment = make_env();
  environment.set_arrival_rates({7.25, 7.25});
  environment.set_arrival_profiles({{3.125, 1.0}, {3.125}});
  std::ostringstream out;
  environment.save_state(out);
  for (const double bad : {inf, nan}) {
    for (const double rate : {7.25, 3.125}) {
      std::istringstream in(replace_f64(out.str(), rate, bad));
      auto target = make_env();
      EXPECT_THROW(target.load_state(in), std::runtime_error);
    }
  }
  std::istringstream clean(out.str());
  auto target = make_env();
  EXPECT_NO_THROW(target.load_state(clean));
}

/// Forwards service_time and keeps the default resolve(), so every query
/// goes through the inner model's by-profile dispatch.
class ByProfileDispatch final : public ServiceModel {
 public:
  explicit ByProfileDispatch(std::shared_ptr<const ServiceModel> inner)
      : inner_(std::move(inner)) {}
  double service_time(const AppProfile& profile,
                      const Allocation& allocation) const override {
    ++calls;
    return inner_->service_time(profile, allocation);
  }
  mutable std::size_t calls = 0;

 private:
  std::shared_ptr<const ServiceModel> inner_;
};

TEST(Environment, ResolvedServiceModelMatchesPerCallDispatch) {
  const DirectServiceModel truth(prototype_capacity());
  const std::vector<AppProfile> profiles{slice1_profile(), slice2_profile(),
                                         slice1_profile()};
  const auto model = std::make_shared<PerProfileLinearServiceModel>(profiles, truth, 0.1);
  const auto dispatch = std::make_shared<ByProfileDispatch>(model);
  RaEnvironmentConfig config;
  config.slices = profiles.size();
  config.arrival_rate = 3.0;
  RaEnvironment resolved(config, profiles, model, make_queue_power_perf(), Rng(9));
  RaEnvironment per_call(config, profiles, dispatch, make_queue_power_perf(), Rng(9));
  Rng actions(4);
  const std::size_t steps = 300;
  for (std::size_t t = 0; t < steps; ++t) {
    const auto action = actions.uniforms(resolved.action_dim(), 0.0, 0.6);
    const auto a = resolved.step(action);
    const auto b = per_call.step(action);
    ASSERT_EQ(a.service_rates, b.service_rates);
    ASSERT_EQ(a.performance, b.performance);
    ASSERT_EQ(a.queue_lengths, b.queue_lengths);
    ASSERT_EQ(a.reward, b.reward);
  }
  EXPECT_EQ(dispatch->calls, steps * profiles.size());

  // An unknown profile is refused when the environment is built.
  const auto partial = std::make_shared<PerProfileLinearServiceModel>(
      std::vector<AppProfile>{slice1_profile()}, truth, 0.1);
  EXPECT_THROW(RaEnvironment({}, {slice1_profile(), slice2_profile()}, partial,
                             make_queue_power_perf(), Rng(1)),
               std::invalid_argument);
}

TEST(Environment, QueuesGrowWithoutResources) {
  auto environment = make_env();
  const auto result = environment.step(std::vector<double>(6, 0.0));
  EXPECT_GT(result.queue_lengths[0] + result.queue_lengths[1], 0.0);
  EXPECT_LT(result.performance[0] + result.performance[1], 0.0);
}

TEST(Environment, AdequateResourcesDrainQueues) {
  RaEnvironmentConfig config;
  config.arrival_rate = 2.0;  // light load
  auto environment = make_env(config);
  double final_queue = 0.0;
  for (int t = 0; t < 50; ++t) {
    const auto result = environment.step(equal_action());
    final_queue = result.queue_lengths[0] + result.queue_lengths[1];
  }
  EXPECT_LT(final_queue, 10.0);
}

TEST(Environment, RewardFollowsEq15Shape) {
  RaEnvironmentConfig config;
  config.rho = 1.0;
  config.beta = 20.0;
  config.reward_scale = 1.0;  // assert the raw Eq. 15 value
  config.reward_clip = 0.0;
  auto environment = make_env(config);
  environment.set_coordination({0.0, 0.0});
  const auto result = environment.step(equal_action());
  // reward = sum_i (U_i - 0.5 * rho * U_i^2) with zero coordination, no penalty.
  double expected = 0.0;
  for (double u : result.performance) expected += u - 0.5 * u * u;
  EXPECT_NEAR(result.reward, expected, 1e-9);
}

TEST(Environment, OverAllocationPenalized) {
  RaEnvironmentConfig config;
  config.beta = 20.0;
  config.reward_scale = 1.0;
  config.reward_clip = 0.0;
  auto environment = make_env(config);
  auto env2 = make_env(config, 2.0, 1);  // same seed: same arrivals
  const auto modest = environment.step(equal_action());
  const auto greedy = env2.step(std::vector<double>(6, 1.0));  // 2x oversubscribed
  EXPECT_DOUBLE_EQ(modest.constraint_violation, 0.0);
  EXPECT_DOUBLE_EQ(greedy.constraint_violation, 3.0);  // 1 extra unit per resource
  // The physical service is identical (proportional scaling) but the shaped
  // reward charges beta * violation.
  EXPECT_NEAR(greedy.reward, modest.reward - 20.0 * 3.0, 1e-9);
}

TEST(Environment, CoordinationEntersStateNormalized) {
  RaEnvironmentConfig config;
  config.coordination_scale = 50.0;
  auto environment = make_env(config);
  environment.set_coordination({-25.0, 10.0});
  const auto s = environment.state();
  EXPECT_DOUBLE_EQ(s[2], -0.5);
  // Positive z - y clamps to 0: every performance function is <= 0, so a
  // positive target is unreachable and reads as "maximize".
  EXPECT_DOUBLE_EQ(s[3], 0.0);
}

TEST(Environment, CoordinationShiftsRewardTarget) {
  // With U == c/T the quadratic term vanishes; moving c away lowers reward.
  RaEnvironmentConfig config;
  config.arrival_rate = 0.0;  // empty queues -> U = 0
  auto environment = make_env(config);
  environment.set_coordination({0.0, 0.0});
  const double matched = environment.step(equal_action()).reward;
  environment.set_coordination({-100.0, -100.0});
  const double mismatched = environment.step(equal_action()).reward;
  EXPECT_GT(matched, mismatched);
}

TEST(Environment, ArrivalRatesControlLoad) {
  RaEnvironmentConfig config;
  auto environment = make_env(config);
  environment.set_arrival_rates({0.0, 0.0});
  const auto result = environment.step(std::vector<double>(6, 0.0));
  EXPECT_DOUBLE_EQ(result.queue_lengths[0], 0.0);
  EXPECT_THROW(environment.set_arrival_rates({1.0}), std::invalid_argument);
  EXPECT_THROW(environment.set_arrival_rates({-1.0, 1.0}), std::invalid_argument);
}

TEST(Environment, ArrivalProfilesCycle) {
  RaEnvironmentConfig config;
  auto environment = make_env(config);
  // Slice 0 alternates 0 / 20 arrivals; slice 1 silent.
  environment.set_arrival_profiles({{0.0, 20.0}, {0.0, 0.0}});
  const std::vector<double> no_service(6, 0.0);
  double even_growth = 0.0;
  double odd_growth = 0.0;
  double prev = 0.0;
  for (int t = 0; t < 40; ++t) {
    const auto result = environment.step(no_service);
    const double growth = result.queue_lengths[0] - prev;
    prev = result.queue_lengths[0];
    (t % 2 == 0 ? even_growth : odd_growth) += growth;
    EXPECT_DOUBLE_EQ(result.queue_lengths[1], 0.0);
  }
  EXPECT_DOUBLE_EQ(even_growth, 0.0);   // profile bin 0: rate 0
  EXPECT_GT(odd_growth, 100.0);         // profile bin 1: rate 20
}

TEST(Environment, ArrivalProfilesValidated) {
  auto environment = make_env();
  EXPECT_THROW(environment.set_arrival_profiles({{1.0}}), std::invalid_argument);
  EXPECT_THROW(environment.set_arrival_profiles({{1.0}, {}}), std::invalid_argument);
  EXPECT_THROW(environment.set_arrival_profiles({{1.0}, {-2.0}}), std::invalid_argument);
  // Clearing restores static rates.
  environment.set_arrival_profiles({{0.0}, {0.0}});
  environment.set_arrival_profiles({});
  const auto result = environment.step(std::vector<double>(6, 0.0));
  EXPECT_GT(result.queue_lengths[0], 0.0);  // default Poisson(10) is back
}

TEST(Environment, ResetRestartsArrivalProfilePhase) {
  auto environment = make_env();
  environment.set_arrival_profiles({{0.0, 30.0}, {0.0, 0.0}});
  const std::vector<double> no_service(6, 0.0);
  environment.step(no_service);  // consumes bin 0
  environment.reset();
  const auto result = environment.step(no_service);  // bin 0 again: rate 0
  EXPECT_DOUBLE_EQ(result.queue_lengths[0], 0.0);
}

TEST(Environment, ResetClearsQueues) {
  auto environment = make_env();
  environment.step(std::vector<double>(6, 0.0));
  environment.reset();
  EXPECT_EQ(environment.queue(0).length, 0u);
  EXPECT_EQ(environment.queue(1).length, 0u);
}

TEST(Environment, DeterministicGivenSeed) {
  auto a = make_env({}, 2.0, 77);
  auto b = make_env({}, 2.0, 77);
  for (int t = 0; t < 20; ++t) {
    const auto ra = a.step(equal_action());
    const auto rb = b.step(equal_action());
    EXPECT_EQ(ra.reward, rb.reward);
    EXPECT_EQ(ra.queue_lengths, rb.queue_lengths);
  }
}

TEST(Environment, ServiceTimePerfFunctionWorks) {
  RaEnvironmentConfig config;
  const auto model = std::make_shared<DirectServiceModel>(prototype_capacity());
  RaEnvironment environment(config, {slice1_profile(), slice2_profile()}, model,
                            make_neg_service_time_perf(), Rng(3));
  const auto result = environment.step(equal_action());
  for (double u : result.performance) EXPECT_LT(u, 0.0);  // -service_time
}

TEST(Environment, AsymmetricDemandShowsInServiceRates) {
  // Giving slice 1 only compute and slice 2 only bandwidth starves both;
  // matching allocations to the demand asymmetry serves both faster.
  auto env_good = make_env({}, 2.0, 5);
  auto env_bad = make_env({}, 2.0, 5);
  // slice 1 traffic-heavy: radio+transport; slice 2 compute-heavy: compute.
  const std::vector<double> matched{0.8, 0.8, 0.2, 0.2, 0.2, 0.8};
  const std::vector<double> inverted{0.2, 0.2, 0.8, 0.8, 0.8, 0.2};
  const auto good = env_good.step(matched);
  const auto bad = env_bad.step(inverted);
  EXPECT_GT(good.service_rates[0], bad.service_rates[0]);
  EXPECT_GT(good.service_rates[1], bad.service_rates[1]);
}

}  // namespace
}  // namespace edgeslice::env
