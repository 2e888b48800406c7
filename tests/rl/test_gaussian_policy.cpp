#include "rl/gaussian_policy.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"

namespace edgeslice::rl {
namespace {

GaussianPolicy make_policy(Rng& rng) {
  return GaussianPolicy(3, 2, 8, 2, rng, -0.5);
}

TEST(GaussianPolicy, SampleStaysInUnitBox) {
  Rng rng(1);
  GaussianPolicy policy(2, 3, 8, 1, rng, 1.0);  // large sigma -> clipping active
  Rng sampler(2);
  for (int i = 0; i < 200; ++i) {
    const auto a = policy.sample({0.3, -0.2}, sampler);
    for (double v : a) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
  }
}

TEST(GaussianPolicy, LogProbPeaksAtMean) {
  Rng rng(3);
  GaussianPolicy policy = make_policy(rng);
  const std::vector<double> s{0.1, 0.2, 0.3};
  const auto mu = policy.mean_action(s);
  const double at_mean = policy.log_prob(s, mu);
  auto off = mu;
  off[0] += 0.2;
  EXPECT_GT(at_mean, policy.log_prob(s, off));
}

TEST(GaussianPolicy, LogProbMatchesGaussianDensity) {
  Rng rng(4);
  GaussianPolicy policy(1, 1, 4, 1, rng, 0.0);  // sigma = 1
  const std::vector<double> s{0.5};
  const double mu = policy.mean_action(s)[0];
  const double a = mu + 1.0;
  // log N(a; mu, 1) = -0.5 - 0.5 log(2 pi).
  EXPECT_NEAR(policy.log_prob(s, {a}), -0.5 - 0.5 * std::log(2 * M_PI), 1e-9);
}

TEST(GaussianPolicy, BatchLogProbMatchesSingle) {
  Rng rng(5);
  GaussianPolicy policy = make_policy(rng);
  nn::Matrix states{{0.1, 0.2, 0.3}, {0.7, 0.1, 0.4}};
  nn::Matrix actions{{0.5, 0.5}, {0.2, 0.8}};
  const auto batch = policy.log_prob_batch(states, actions);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_NEAR(batch[0], policy.log_prob({0.1, 0.2, 0.3}, {0.5, 0.5}), 1e-12);
  EXPECT_NEAR(batch[1], policy.log_prob({0.7, 0.1, 0.4}, {0.2, 0.8}), 1e-12);
}

// Gradient check: d/dtheta sum_b c_b logp_b against finite differences.
TEST(GaussianPolicy, LogProbGradientMatchesFiniteDifference) {
  Rng rng(6);
  GaussianPolicy policy(2, 2, 5, 1, rng, -0.3);
  nn::Matrix states{{0.2, -0.1}, {0.5, 0.9}, {-0.4, 0.3}};
  nn::Matrix actions{{0.4, 0.6}, {0.1, 0.2}, {0.9, 0.5}};
  const std::vector<double> coeffs{1.0, -2.0, 0.5};

  policy.zero_grad();
  policy.accumulate_logprob_gradient(states, actions, coeffs);
  const auto analytic = policy.flat_gradients();

  const auto objective = [&]() {
    const auto logp = policy.log_prob_batch(states, actions);
    double acc = 0.0;
    for (std::size_t b = 0; b < logp.size(); ++b) acc += coeffs[b] * logp[b];
    return acc;
  };
  const auto theta = policy.flat_parameters();
  const double eps = 1e-6;
  for (std::size_t i = 0; i < theta.size(); i += 5) {
    auto up = theta;
    auto down = theta;
    up[i] += eps;
    down[i] -= eps;
    policy.set_flat_parameters(up);
    const double lu = objective();
    policy.set_flat_parameters(down);
    const double ld = objective();
    policy.set_flat_parameters(theta);
    EXPECT_NEAR(analytic[i], (lu - ld) / (2 * eps), 1e-4) << "param " << i;
  }
}

// Gradient check for the mean-KL gradient.
TEST(GaussianPolicy, KlGradientMatchesFiniteDifference) {
  Rng rng(7);
  GaussianPolicy policy(2, 2, 5, 1, rng, -0.3);
  nn::Matrix states{{0.2, -0.1}, {0.5, 0.9}};
  const nn::Matrix old_means = policy.mean_batch(states);
  const auto old_log_std = policy.log_std();

  // Perturb the policy so the KL is non-trivial.
  auto theta = policy.flat_parameters();
  Rng jitter(8);
  for (auto& v : theta) v += jitter.normal(0.0, 0.05);
  policy.set_flat_parameters(theta);

  policy.zero_grad();
  policy.accumulate_kl_gradient(old_means, old_log_std, states);
  const auto analytic = policy.flat_gradients();

  const double eps = 1e-6;
  for (std::size_t i = 0; i < theta.size(); i += 7) {
    auto up = theta;
    auto down = theta;
    up[i] += eps;
    down[i] -= eps;
    policy.set_flat_parameters(up);
    const double ku = policy.mean_kl(old_means, old_log_std, states);
    policy.set_flat_parameters(down);
    const double kd = policy.mean_kl(old_means, old_log_std, states);
    policy.set_flat_parameters(theta);
    EXPECT_NEAR(analytic[i], (ku - kd) / (2 * eps), 1e-4) << "param " << i;
  }
}

TEST(GaussianPolicy, KlIsZeroAtOldPolicy) {
  Rng rng(9);
  GaussianPolicy policy = make_policy(rng);
  nn::Matrix states{{0.1, 0.2, 0.3}};
  const auto old_means = policy.mean_batch(states);
  EXPECT_NEAR(policy.mean_kl(old_means, policy.log_std(), states), 0.0, 1e-12);
}

TEST(GaussianPolicy, KlPositiveAwayFromOldPolicy) {
  Rng rng(10);
  GaussianPolicy policy = make_policy(rng);
  nn::Matrix states{{0.1, 0.2, 0.3}, {0.9, -0.5, 0.0}};
  const auto old_means = policy.mean_batch(states);
  const auto old_log_std = policy.log_std();
  auto theta = policy.flat_parameters();
  for (auto& v : theta) v += 0.1;
  policy.set_flat_parameters(theta);
  EXPECT_GT(policy.mean_kl(old_means, old_log_std, states), 0.0);
}

TEST(GaussianPolicy, EntropyGradientIsOnePerDim) {
  Rng rng(12);
  GaussianPolicy policy = make_policy(rng);
  policy.zero_grad();
  policy.accumulate_entropy_gradient(2.0);
  const auto g = policy.flat_gradients();
  // The last action_dim entries are the log-std gradient.
  EXPECT_DOUBLE_EQ(g[g.size() - 1], 2.0);
  EXPECT_DOUBLE_EQ(g[g.size() - 2], 2.0);
}

TEST(GaussianPolicy, FlatParameterRoundTrip) {
  Rng rng(13);
  GaussianPolicy policy = make_policy(rng);
  auto theta = policy.flat_parameters();
  EXPECT_EQ(theta.size(), policy.parameter_count());
  theta.back() = -1.25;  // log_std entry
  policy.set_flat_parameters(theta);
  EXPECT_DOUBLE_EQ(policy.log_std().back(), -1.25);
}

TEST(GaussianPolicy, AddLogStdGradientValidates) {
  Rng rng(14);
  GaussianPolicy policy = make_policy(rng);
  EXPECT_THROW(policy.add_log_std_gradient({1.0}), std::invalid_argument);
  policy.zero_grad();
  policy.add_log_std_gradient({1.0, 2.0});
  const auto g = policy.flat_gradients();
  EXPECT_DOUBLE_EQ(g[g.size() - 2], 1.0);
  EXPECT_DOUBLE_EQ(g[g.size() - 1], 2.0);
}

}  // namespace
}  // namespace edgeslice::rl
