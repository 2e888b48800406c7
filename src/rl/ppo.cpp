#include "rl/ppo.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace edgeslice::rl {

namespace {

nn::Matrix gather_rows(const nn::Matrix& m, const std::vector<std::size_t>& idx) {
  nn::Matrix out(idx.size(), m.cols());
  for (std::size_t r = 0; r < idx.size(); ++r) out.set_row(r, m.row_vector(idx[r]));
  return out;
}

}  // namespace

Ppo::Ppo(const PpoConfig& config, Rng& rng)
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

std::vector<double> Ppo::act(const std::vector<double>& state, bool explore) {
  return explore ? policy_.sample(state, rng_) : policy_.mean_action(state);
}

void Ppo::observe(const std::vector<double>& state, const std::vector<double>& action,
                  double reward, const std::vector<double>& next_state, bool done) {
  const double value = value_net_.infer_vector(state)[0];
  const double log_prob = policy_.log_prob(state, action);
  rollout_.push(state, action, reward, value, log_prob, done);
  if (rollout_.full()) update(next_state, done);
}

void Ppo::update(const std::vector<double>& last_next_state, bool last_done) {
  const double bootstrap = last_done ? 0.0 : value_net_.infer_vector(last_next_state)[0];
  rollout_.finish(bootstrap, config_.base.gamma, config_.gae_lambda);

  const std::size_t n = rollout_.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);

  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    // Shuffle sample order each epoch.
    for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng_.index(i)]);

    for (std::size_t start = 0; start < n; start += config_.minibatch) {
      const std::size_t end = std::min(start + config_.minibatch, n);
      std::vector<std::size_t> idx(order.begin() + static_cast<std::ptrdiff_t>(start),
                                   order.begin() + static_cast<std::ptrdiff_t>(end));
      const std::size_t m = idx.size();
      const nn::Matrix states = gather_rows(rollout_.states(), idx);
      const nn::Matrix actions = gather_rows(rollout_.actions(), idx);

      // --- Clipped surrogate policy step.
      const auto logp_new = policy_.log_prob_batch(states, actions);
      std::vector<double> coeffs(m, 0.0);
      for (std::size_t b = 0; b < m; ++b) {
        const double adv = rollout_.advantages()[idx[b]];
        const double ratio = std::exp(logp_new[b] - rollout_.log_probs()[idx[b]]);
        const bool clipped = (adv >= 0.0 && ratio > 1.0 + config_.clip) ||
                             (adv < 0.0 && ratio < 1.0 - config_.clip);
        // Descent on -surrogate: d(-min(...))/dlogp = -ratio*adv when unclipped.
        if (!clipped) coeffs[b] = -ratio * adv / static_cast<double>(m);
      }
      policy_.zero_grad();
      policy_.accumulate_logprob_gradient(states, actions, coeffs);
      policy_.accumulate_entropy_gradient(-config_.entropy_coef);
      policy_optimizer_.step();

      // --- Value regression toward returns.
      const nn::Matrix v = value_net_.forward(states);
      nn::Matrix v_grad(m, 1);
      for (std::size_t b = 0; b < m; ++b) {
        v_grad(b, 0) = 2.0 * (v(b, 0) - rollout_.returns()[idx[b]]) / static_cast<double>(m);
      }
      value_net_.backward(v_grad, nn::Backprop::Parameters);
      value_optimizer_.step();
    }
  }
  rollout_.clear();
  ++updates_;
}

}  // namespace edgeslice::rl
