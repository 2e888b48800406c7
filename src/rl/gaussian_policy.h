// Diagonal-Gaussian stochastic policy shared by PPO / TRPO / VPG / SAC.
//
// The mean is an MLP with a sigmoid head (actions live in (0,1), matching
// the DDPG actor); the log standard deviation is a state-independent
// learnable vector. Sampled actions are clipped to [0,1]; log-probabilities
// are computed for the unclipped Gaussian, the standard pragmatic treatment
// for box-bounded continuous control.
#pragma once

#include <vector>

#include "common/rng.h"
#include "nn/mlp.h"

namespace edgeslice::rl {

class GaussianPolicy {
 public:
  GaussianPolicy(std::size_t state_dim, std::size_t action_dim, std::size_t hidden,
                 std::size_t hidden_layers, Rng& rng, double initial_log_std = -0.5);

  std::size_t state_dim() const { return mean_net_.in_dim(); }
  std::size_t action_dim() const { return mean_net_.out_dim(); }

  /// Deterministic (mean) action.
  std::vector<double> mean_action(const std::vector<double>& state) const;
  /// Sample an action, clipped to [0,1].
  std::vector<double> sample(const std::vector<double>& state, Rng& rng) const;

  /// Log-density of `action` under the (unclipped) Gaussian at `state`.
  double log_prob(const std::vector<double>& state, const std::vector<double>& action) const;

  nn::Matrix mean_batch(const nn::Matrix& states) const { return mean_net_.infer(states); }
  std::vector<double> log_prob_batch(const nn::Matrix& states,
                                     const nn::Matrix& actions) const;
  /// Log-prob per sample given precomputed means (avoids a second forward).
  std::vector<double> log_prob_given_means(const nn::Matrix& means,
                                           const nn::Matrix& actions) const;

  /// Accumulate the gradient of  sum_b coeff[b] * log pi(a_b | s_b)  into the
  /// mean network's parameter gradients and the log-std gradient. The caller
  /// chooses coefficient signs (negative advantage / batch size for descent
  /// on a policy-gradient loss). Runs a cached forward internally.
  void accumulate_logprob_gradient(const nn::Matrix& states, const nn::Matrix& actions,
                                   const std::vector<double>& coefficients);

  /// Add an externally computed gradient vector to the log-std gradient
  /// buffer (used by SAC's reparameterized update).
  void add_log_std_gradient(const std::vector<double>& grad);

  /// Add `coefficient` * d(entropy)/d(log_std) to the log-std gradient
  /// (entropy of a diagonal Gaussian is sum(log_std) + const, so the
  /// derivative is 1 per dimension).
  void accumulate_entropy_gradient(double coefficient);

  /// Analytic KL(old || this) averaged over states, where `old_means` are the
  /// old policy's means on the same states and `old_log_std` its log-stds.
  double mean_kl(const nn::Matrix& old_means, const std::vector<double>& old_log_std,
                 const nn::Matrix& states) const;

  /// Accumulate the gradient of mean_kl w.r.t. this policy's parameters.
  void accumulate_kl_gradient(const nn::Matrix& old_means,
                              const std::vector<double>& old_log_std,
                              const nn::Matrix& states);

  void attach_to(nn::Adam& optimizer);
  void zero_grad();

  /// Flattened parameters = mean-net parameters ++ log-std (TRPO).
  std::vector<double> flat_parameters() const;
  void set_flat_parameters(const std::vector<double>& theta);
  std::vector<double> flat_gradients() const;
  std::size_t parameter_count() const;

  nn::Mlp& mean_net() { return mean_net_; }
  const nn::Mlp& mean_net() const { return mean_net_; }
  std::vector<double> log_std() const { return log_std_.row_vector(0); }

 private:
  nn::Mlp mean_net_;
  nn::Matrix log_std_;       // 1 x A
  nn::Matrix log_std_grad_;  // 1 x A
};

}  // namespace edgeslice::rl
