#include "rl/gaussian_policy.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace edgeslice::rl {

namespace {

std::vector<std::size_t> layer_sizes(std::size_t in, std::size_t hidden,
                                     std::size_t hidden_layers, std::size_t out) {
  std::vector<std::size_t> sizes{in};
  sizes.insert(sizes.end(), hidden_layers, hidden);
  sizes.push_back(out);
  return sizes;
}

constexpr double kHalfLog2Pi = 0.9189385332046727;  // 0.5 * log(2*pi)

}  // namespace

GaussianPolicy::GaussianPolicy(std::size_t state_dim, std::size_t action_dim,
                               std::size_t hidden, std::size_t hidden_layers, Rng& rng,
                               double initial_log_std)
    : mean_net_(layer_sizes(state_dim, hidden, hidden_layers, action_dim),
                nn::Activation::LeakyRelu, nn::Activation::Sigmoid, rng),
      log_std_(1, action_dim, initial_log_std),
      log_std_grad_(1, action_dim) {}

std::vector<double> GaussianPolicy::mean_action(const std::vector<double>& state) const {
  return mean_net_.infer_vector(state);
}

std::vector<double> GaussianPolicy::sample(const std::vector<double>& state,
                                           Rng& rng) const {
  auto action = mean_net_.infer_vector(state);
  for (std::size_t k = 0; k < action.size(); ++k) {
    action[k] = std::clamp(action[k] + std::exp(log_std_(0, k)) * rng.normal(), 0.0, 1.0);
  }
  return action;
}

double GaussianPolicy::log_prob(const std::vector<double>& state,
                                const std::vector<double>& action) const {
  const auto mu = mean_net_.infer_vector(state);
  double logp = 0.0;
  for (std::size_t k = 0; k < mu.size(); ++k) {
    const double sigma = std::exp(log_std_(0, k));
    const double z = (action[k] - mu[k]) / sigma;
    logp += -0.5 * z * z - log_std_(0, k) - kHalfLog2Pi;
  }
  return logp;
}

std::vector<double> GaussianPolicy::log_prob_batch(const nn::Matrix& states,
                                                   const nn::Matrix& actions) const {
  return log_prob_given_means(mean_net_.infer(states), actions);
}

std::vector<double> GaussianPolicy::log_prob_given_means(const nn::Matrix& means,
                                                         const nn::Matrix& actions) const {
  if (means.rows() != actions.rows() || means.cols() != actions.cols())
    throw std::invalid_argument("GaussianPolicy: means/actions shape mismatch");
  std::vector<double> out(means.rows(), 0.0);
  for (std::size_t b = 0; b < means.rows(); ++b) {
    for (std::size_t k = 0; k < means.cols(); ++k) {
      const double sigma = std::exp(log_std_(0, k));
      const double z = (actions(b, k) - means(b, k)) / sigma;
      out[b] += -0.5 * z * z - log_std_(0, k) - kHalfLog2Pi;
    }
  }
  return out;
}

void GaussianPolicy::accumulate_logprob_gradient(const nn::Matrix& states,
                                                 const nn::Matrix& actions,
                                                 const std::vector<double>& coefficients) {
  if (coefficients.size() != states.rows())
    throw std::invalid_argument("GaussianPolicy: coefficient count mismatch");
  const nn::Matrix means = mean_net_.forward(states);
  nn::Matrix mean_grad(means.rows(), means.cols());
  for (std::size_t b = 0; b < means.rows(); ++b) {
    for (std::size_t k = 0; k < means.cols(); ++k) {
      const double sigma = std::exp(log_std_(0, k));
      const double diff = actions(b, k) - means(b, k);
      // d logp / d mu = (a - mu) / sigma^2
      mean_grad(b, k) = coefficients[b] * diff / (sigma * sigma);
      // d logp / d log_std = (a - mu)^2 / sigma^2 - 1
      log_std_grad_(0, k) += coefficients[b] * (diff * diff / (sigma * sigma) - 1.0);
    }
  }
  mean_net_.backward(mean_grad, nn::Backprop::Parameters);
}

void GaussianPolicy::add_log_std_gradient(const std::vector<double>& grad) {
  if (grad.size() != log_std_grad_.cols())
    throw std::invalid_argument("GaussianPolicy::add_log_std_gradient: size mismatch");
  for (std::size_t k = 0; k < grad.size(); ++k) log_std_grad_(0, k) += grad[k];
}

void GaussianPolicy::accumulate_entropy_gradient(double coefficient) {
  for (std::size_t k = 0; k < log_std_grad_.cols(); ++k) {
    log_std_grad_(0, k) += coefficient;
  }
}

double GaussianPolicy::mean_kl(const nn::Matrix& old_means,
                               const std::vector<double>& old_log_std,
                               const nn::Matrix& states) const {
  const nn::Matrix means = mean_net_.infer(states);
  double kl = 0.0;
  for (std::size_t b = 0; b < means.rows(); ++b) {
    for (std::size_t k = 0; k < means.cols(); ++k) {
      const double ls_new = log_std_(0, k);
      const double ls_old = old_log_std[k];
      const double var_new = std::exp(2.0 * ls_new);
      const double var_old = std::exp(2.0 * ls_old);
      const double dmu = old_means(b, k) - means(b, k);
      kl += ls_new - ls_old + (var_old + dmu * dmu) / (2.0 * var_new) - 0.5;
    }
  }
  return kl / static_cast<double>(means.rows());
}

void GaussianPolicy::accumulate_kl_gradient(const nn::Matrix& old_means,
                                            const std::vector<double>& old_log_std,
                                            const nn::Matrix& states) {
  const nn::Matrix means = mean_net_.forward(states);
  const double inv_n = 1.0 / static_cast<double>(means.rows());
  nn::Matrix mean_grad(means.rows(), means.cols());
  for (std::size_t b = 0; b < means.rows(); ++b) {
    for (std::size_t k = 0; k < means.cols(); ++k) {
      const double ls_new = log_std_(0, k);
      const double ls_old = old_log_std[k];
      const double var_new = std::exp(2.0 * ls_new);
      const double var_old = std::exp(2.0 * ls_old);
      const double dmu = means(b, k) - old_means(b, k);
      // d KL / d mu_new = (mu_new - mu_old) / var_new
      mean_grad(b, k) = inv_n * dmu / var_new;
      // d KL / d ls_new = 1 - (var_old + dmu^2) / var_new
      log_std_grad_(0, k) += inv_n * (1.0 - (var_old + dmu * dmu) / var_new);
    }
  }
  mean_net_.backward(mean_grad, nn::Backprop::Parameters);
}

void GaussianPolicy::attach_to(nn::Adam& optimizer) {
  mean_net_.attach_to(optimizer);
  optimizer.attach(&log_std_, &log_std_grad_);
}

void GaussianPolicy::zero_grad() {
  mean_net_.zero_grad();
  log_std_grad_.fill(0.0);
}

std::vector<double> GaussianPolicy::flat_parameters() const {
  auto theta = mean_net_.flat_parameters();
  const auto& ls = log_std_.data();
  theta.insert(theta.end(), ls.begin(), ls.end());
  return theta;
}

void GaussianPolicy::set_flat_parameters(const std::vector<double>& theta) {
  const std::size_t net_params = mean_net_.parameter_count();
  if (theta.size() != net_params + log_std_.size())
    throw std::invalid_argument("GaussianPolicy::set_flat_parameters: size mismatch");
  mean_net_.set_flat_parameters(
      {theta.begin(), theta.begin() + static_cast<std::ptrdiff_t>(net_params)});
  std::copy(theta.begin() + static_cast<std::ptrdiff_t>(net_params), theta.end(),
            log_std_.data().begin());
}

std::vector<double> GaussianPolicy::flat_gradients() const {
  auto g = mean_net_.flat_gradients();
  const auto& ls = log_std_grad_.data();
  g.insert(g.end(), ls.begin(), ls.end());
  return g;
}

std::size_t GaussianPolicy::parameter_count() const {
  return mean_net_.parameter_count() + log_std_.size();
}

}  // namespace edgeslice::rl
