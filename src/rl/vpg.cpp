#include "rl/vpg.h"

namespace edgeslice::rl {

Vpg::Vpg(const VpgConfig& config, Rng& rng)
    : config_(config),
      rng_(rng.spawn()),
      policy_(config.base.state_dim, config.base.action_dim, config.base.hidden,
              config.base.hidden_layers, rng_),
      value_net_({config.base.state_dim, config.base.hidden, config.base.hidden, 1},
                 nn::Activation::LeakyRelu, nn::Activation::Identity, rng_),
      policy_optimizer_(nn::AdamConfig{.learning_rate = config.base.actor_lr}),
      value_optimizer_(nn::AdamConfig{.learning_rate = config.value_lr}),
      rollout_(config.horizon, config.base.state_dim, config.base.action_dim) {
  policy_.attach_to(policy_optimizer_);
  value_net_.attach_to(value_optimizer_);
}

std::vector<double> Vpg::act(const std::vector<double>& state, bool explore) {
  return explore ? policy_.sample(state, rng_) : policy_.mean_action(state);
}

void Vpg::observe(const std::vector<double>& state, const std::vector<double>& action,
                  double reward, const std::vector<double>& next_state, bool done) {
  const double value = value_net_.infer_vector(state)[0];
  const double log_prob = policy_.log_prob(state, action);
  rollout_.push(state, action, reward, value, log_prob, done);
  if (rollout_.full()) update(next_state, done);
}

void Vpg::update(const std::vector<double>& last_next_state, bool last_done) {
  const double bootstrap = last_done ? 0.0 : value_net_.infer_vector(last_next_state)[0];
  rollout_.finish(bootstrap, config_.base.gamma, config_.gae_lambda);

  const std::size_t n = rollout_.size();
  // Single policy-gradient step: descend -E[ A * log pi(a|s) ].
  std::vector<double> coeffs(n);
  for (std::size_t b = 0; b < n; ++b) {
    coeffs[b] = -rollout_.advantages()[b] / static_cast<double>(n);
  }
  policy_.zero_grad();
  policy_.accumulate_logprob_gradient(rollout_.states(), rollout_.actions(), coeffs);
  policy_optimizer_.step();

  // Several epochs of value regression.
  for (std::size_t epoch = 0; epoch < config_.value_epochs; ++epoch) {
    const nn::Matrix v = value_net_.forward(rollout_.states());
    nn::Matrix v_grad(n, 1);
    for (std::size_t b = 0; b < n; ++b) {
      v_grad(b, 0) = 2.0 * (v(b, 0) - rollout_.returns()[b]) / static_cast<double>(n);
    }
    value_net_.backward(v_grad, nn::Backprop::Parameters);
    value_optimizer_.step();
  }
  rollout_.clear();
  ++updates_;
}

}  // namespace edgeslice::rl
