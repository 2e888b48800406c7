#include "rl/trpo.h"

#include <cmath>

namespace edgeslice::rl {

namespace {

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

std::vector<double> axpy(double alpha, const std::vector<double>& x,
                         const std::vector<double>& y) {
  std::vector<double> out(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) out[i] = alpha * x[i] + y[i];
  return out;
}

}  // namespace

Trpo::Trpo(const TrpoConfig& config, Rng& rng)
    : config_(config),
      rng_(rng.spawn()),
      policy_(config.base.state_dim, config.base.action_dim, config.base.hidden,
              config.base.hidden_layers, rng_),
      value_net_({config.base.state_dim, config.base.hidden, config.base.hidden, 1},
                 nn::Activation::LeakyRelu, nn::Activation::Identity, rng_),
      value_optimizer_(nn::AdamConfig{.learning_rate = config.value_lr}),
      rollout_(config.horizon, config.base.state_dim, config.base.action_dim) {
  value_net_.attach_to(value_optimizer_);
}

std::vector<double> Trpo::act(const std::vector<double>& state, bool explore) {
  return explore ? policy_.sample(state, rng_) : policy_.mean_action(state);
}

void Trpo::observe(const std::vector<double>& state, const std::vector<double>& action,
                   double reward, const std::vector<double>& next_state, bool done) {
  const double value = value_net_.infer_vector(state)[0];
  const double log_prob = policy_.log_prob(state, action);
  rollout_.push(state, action, reward, value, log_prob, done);
  if (rollout_.full()) update(next_state, done);
}

double Trpo::surrogate(const std::vector<double>& old_log_probs) const {
  const auto logp = policy_.log_prob_batch(rollout_.states(), rollout_.actions());
  double acc = 0.0;
  for (std::size_t b = 0; b < logp.size(); ++b) {
    acc += std::exp(logp[b] - old_log_probs[b]) * rollout_.advantages()[b];
  }
  return acc / static_cast<double>(logp.size());
}

std::vector<double> Trpo::fisher_vector_product(const std::vector<double>& v,
                                                const nn::Matrix& old_means,
                                                const std::vector<double>& old_log_std) {
  // grad KL vanishes at theta_old, so H v ~= grad KL(theta_old + eps v) / eps.
  const auto theta = policy_.flat_parameters();
  auto theta_shift = theta;
  for (std::size_t i = 0; i < theta.size(); ++i) theta_shift[i] += config_.fd_epsilon * v[i];
  policy_.set_flat_parameters(theta_shift);
  policy_.zero_grad();
  policy_.accumulate_kl_gradient(old_means, old_log_std, rollout_.states());
  auto hv = policy_.flat_gradients();
  policy_.set_flat_parameters(theta);
  policy_.zero_grad();
  for (std::size_t i = 0; i < hv.size(); ++i) {
    hv[i] = hv[i] / config_.fd_epsilon + config_.cg_damping * v[i];
  }
  return hv;
}

void Trpo::update(const std::vector<double>& last_next_state, bool last_done) {
  const double bootstrap = last_done ? 0.0 : value_net_.infer_vector(last_next_state)[0];
  rollout_.finish(bootstrap, config_.base.gamma, config_.gae_lambda);
  const std::size_t n = rollout_.size();

  const nn::Matrix old_means = policy_.mean_batch(rollout_.states());
  const std::vector<double> old_log_std = policy_.log_std();
  const std::vector<double> old_log_probs =
      policy_.log_prob_given_means(old_means, rollout_.actions());

  // Policy gradient of the surrogate (ascent direction).
  std::vector<double> coeffs(n);
  for (std::size_t b = 0; b < n; ++b) {
    coeffs[b] = rollout_.advantages()[b] / static_cast<double>(n);
  }
  policy_.zero_grad();
  policy_.accumulate_logprob_gradient(rollout_.states(), rollout_.actions(), coeffs);
  const std::vector<double> g = policy_.flat_gradients();
  policy_.zero_grad();

  // Conjugate gradient for x = H^-1 g.
  std::vector<double> x(g.size(), 0.0);
  std::vector<double> r = g;
  std::vector<double> p = g;
  double rs_old = dot(r, r);
  if (rs_old < 1e-12) {
    rollout_.clear();
    ++updates_;
    return;
  }
  for (std::size_t it = 0; it < config_.cg_iterations; ++it) {
    const auto hp = fisher_vector_product(p, old_means, old_log_std);
    const double alpha = rs_old / std::max(dot(p, hp), 1e-12);
    x = axpy(alpha, p, x);
    r = axpy(-alpha, hp, r);
    const double rs_new = dot(r, r);
    if (rs_new < 1e-10) break;
    p = axpy(rs_new / rs_old, p, r);
    rs_old = rs_new;
  }

  // Scale to the trust-region boundary.
  const auto hx = fisher_vector_product(x, old_means, old_log_std);
  const double xhx = std::max(dot(x, hx), 1e-12);
  const double step_scale = std::sqrt(2.0 * config_.max_kl / xhx);

  // Backtracking line search: require KL within region and surrogate gain.
  const auto theta_old = policy_.flat_parameters();
  const double surrogate_old = surrogate(old_log_probs);
  double scale = step_scale;
  bool accepted = false;
  for (std::size_t step = 0; step < config_.backtrack_steps; ++step) {
    auto theta_new = theta_old;
    for (std::size_t i = 0; i < theta_new.size(); ++i) theta_new[i] += scale * x[i];
    policy_.set_flat_parameters(theta_new);
    const double kl = policy_.mean_kl(old_means, old_log_std, rollout_.states());
    const double improvement = surrogate(old_log_probs) - surrogate_old;
    if (kl <= 1.5 * config_.max_kl && improvement > 0.0) {
      accepted = true;
      last_kl_ = kl;
      break;
    }
    scale *= config_.backtrack_ratio;
  }
  if (!accepted) {
    policy_.set_flat_parameters(theta_old);
    last_kl_ = 0.0;
  }

  // Value regression.
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
