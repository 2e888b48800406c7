#include "rl/sac.h"

#include <algorithm>
#include <cmath>

namespace edgeslice::rl {

Sac::Sac(const SacConfig& config, Rng& rng)
    : config_(config),
      rng_(rng.spawn()),
      policy_(config.base.state_dim, config.base.action_dim, config.base.hidden,
              config.base.hidden_layers, rng_, config.initial_log_std),
      q1_({config.base.state_dim + config.base.action_dim, config.base.hidden,
           config.base.hidden, 1},
          nn::Activation::LeakyRelu, nn::Activation::Identity, rng_),
      q2_({config.base.state_dim + config.base.action_dim, config.base.hidden,
           config.base.hidden, 1},
          nn::Activation::LeakyRelu, nn::Activation::Identity, rng_),
      q1_target_(q1_),
      q2_target_(q2_),
      policy_optimizer_(nn::AdamConfig{.learning_rate = config.base.actor_lr}),
      q1_optimizer_(nn::AdamConfig{.learning_rate = config.base.critic_lr}),
      q2_optimizer_(nn::AdamConfig{.learning_rate = config.base.critic_lr}),
      replay_(config.replay_capacity) {
  policy_.attach_to(policy_optimizer_);
  q1_.attach_to(q1_optimizer_);
  q2_.attach_to(q2_optimizer_);
}

std::vector<double> Sac::act(const std::vector<double>& state, bool explore) {
  return explore ? policy_.sample(state, rng_) : policy_.mean_action(state);
}

void Sac::observe(const std::vector<double>& state, const std::vector<double>& action,
                  double reward, const std::vector<double>& next_state, bool done) {
  replay_.push(Transition{state, action, reward, next_state, done});
  ++observed_;
  if (replay_.size() >= config_.warmup && observed_ % config_.train_every == 0) {
    train_batch();
  }
}

void Sac::train_batch() {
  const std::size_t batch = std::min(config_.batch_size, replay_.size());
  Batch b = replay_.sample(batch, rng_);
  const std::size_t action_dim = config_.base.action_dim;
  const auto log_std = policy_.log_std();

  // --- Soft Bellman targets with next actions sampled from the policy.
  const nn::Matrix next_means = policy_.mean_batch(b.next_states);
  nn::Matrix next_actions(batch, action_dim);
  std::vector<double> next_logp(batch, 0.0);
  for (std::size_t i = 0; i < batch; ++i) {
    for (std::size_t k = 0; k < action_dim; ++k) {
      const double sigma = std::exp(log_std[k]);
      const double eps = rng_.normal();
      next_actions(i, k) = std::clamp(next_means(i, k) + sigma * eps, 0.0, 1.0);
      next_logp[i] += -0.5 * eps * eps - log_std[k] - 0.9189385332046727;
    }
  }
  const nn::Matrix sa_next = nn::hconcat(b.next_states, next_actions);
  const nn::Matrix q1n = q1_target_.infer(sa_next);
  const nn::Matrix q2n = q2_target_.infer(sa_next);
  std::vector<double> targets(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    const double soft_v = std::min(q1n(i, 0), q2n(i, 0)) - config_.alpha * next_logp[i];
    targets[i] = b.rewards[i] + (b.done[i] ? 0.0 : config_.base.gamma * soft_v);
  }

  // --- Twin critic regression.
  const nn::Matrix sa = nn::hconcat(b.states, b.actions);
  for (auto* pair : {&q1_, &q2_}) {
    const nn::Matrix q = pair->forward(sa);
    nn::Matrix grad(batch, 1);
    for (std::size_t i = 0; i < batch; ++i) {
      grad(i, 0) = 2.0 * (q(i, 0) - targets[i]) / static_cast<double>(batch);
    }
    pair->backward(grad, nn::Backprop::Parameters);
  }
  q1_optimizer_.step();
  q2_optimizer_.step();

  // --- Policy update by reparameterization:
  //     minimize E[ alpha * log pi(a~|s) - Q1(s, a~) ],  a~ = mu + sigma*eps.
  const nn::Matrix means = policy_.mean_net().forward(b.states);
  nn::Matrix sampled(batch, action_dim);
  nn::Matrix eps_mat(batch, action_dim);
  for (std::size_t i = 0; i < batch; ++i) {
    for (std::size_t k = 0; k < action_dim; ++k) {
      const double eps = rng_.normal();
      eps_mat(i, k) = eps;
      sampled(i, k) = std::clamp(means(i, k) + std::exp(log_std[k]) * eps, 0.0, 1.0);
    }
  }
  q1_.forward(nn::hconcat(b.states, sampled));
  nn::Matrix minus_one(batch, 1, -1.0 / static_cast<double>(batch));
  // Only dL/d(s, a) is wanted: the critic is not updated by this pass.
  const nn::Matrix input_grad = q1_.backward(minus_one, nn::Backprop::Input);
  const nn::Matrix action_grad =
      input_grad.slice_columns(config_.base.state_dim, config_.base.state_dim + action_dim);

  // d a~/d mu = 1 (straight-through on the clip), so mean gradient is the
  // action gradient; log-std picks up the reparameterized chain plus the
  // entropy term d(alpha * logp)/d log_std = -alpha.
  policy_.mean_net().backward(action_grad, nn::Backprop::Parameters);
  std::vector<double> log_std_grad(action_dim, -config_.alpha);
  for (std::size_t i = 0; i < batch; ++i) {
    for (std::size_t k = 0; k < action_dim; ++k) {
      log_std_grad[k] += action_grad(i, k) * std::exp(log_std[k]) * eps_mat(i, k);
    }
  }
  policy_.add_log_std_gradient(log_std_grad);
  policy_optimizer_.step();

  q1_target_.soft_update_from(q1_, config_.tau);
  q2_target_.soft_update_from(q2_, config_.tau);
  ++updates_;
}

}  // namespace edgeslice::rl
