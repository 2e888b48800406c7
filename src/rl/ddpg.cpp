#include "rl/ddpg.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/binio.h"
#include "common/metrics.h"
#include "common/trace_span.h"

namespace edgeslice::rl {

namespace {

std::vector<std::size_t> layer_sizes(std::size_t in, std::size_t hidden,
                                     std::size_t hidden_layers, std::size_t out) {
  std::vector<std::size_t> sizes{in};
  sizes.insert(sizes.end(), hidden_layers, hidden);
  sizes.push_back(out);
  return sizes;
}

void write_adam_state(std::ostream& out, const nn::Adam& optimizer) {
  const nn::AdamState state = optimizer.export_state();
  write_u64(out, state.step_count);
  write_f64_vector(out, state.m);
  write_f64_vector(out, state.v);
}

nn::AdamState read_adam_state(std::istream& in) {
  nn::AdamState state;
  state.step_count = static_cast<std::size_t>(read_u64(in, "Ddpg::load_checkpoint"));
  state.m = read_f64_vector(in, "Ddpg::load_checkpoint");
  state.v = read_f64_vector(in, "Ddpg::load_checkpoint");
  return state;
}

/// Deserialize one network blob and check it matches `target`'s
/// architecture (sizes and activations); returns its flat parameters.
std::vector<double> read_network_for(std::istream& in, const nn::Mlp& target,
                                     const char* which) {
  nn::Mlp loaded = nn::Mlp::load_binary(in);
  if (loaded.layer_sizes() != target.layer_sizes()) {
    throw std::runtime_error(std::string("Ddpg::load_checkpoint: ") + which +
                             " architecture mismatch");
  }
  for (std::size_t i = 0; i < loaded.layers().size(); ++i) {
    if (loaded.layers()[i].activation() != target.layers()[i].activation()) {
      throw std::runtime_error(std::string("Ddpg::load_checkpoint: ") + which +
                               " activation mismatch (layer " + std::to_string(i) + ")");
    }
  }
  return loaded.flat_parameters();
}

}  // namespace

Ddpg::Ddpg(const DdpgConfig& config, Rng& rng)
    : config_(config),
      rng_(rng.spawn()),
      // Actor: sigmoid head -> actions in (0,1); hidden LeakyReLU (Sec. VI-A).
      actor_(layer_sizes(config.base.state_dim, config.base.hidden,
                         config.base.hidden_layers, config.base.action_dim),
             nn::Activation::LeakyRelu, nn::Activation::Sigmoid, rng_),
      critic_(layer_sizes(config.base.state_dim + config.base.action_dim,
                          config.base.hidden, config.base.hidden_layers, 1),
              nn::Activation::LeakyRelu, nn::Activation::Identity, rng_),
      actor_target_(actor_),
      critic_target_(critic_),
      actor_optimizer_(nn::AdamConfig{.learning_rate = config.base.actor_lr}),
      critic_optimizer_(nn::AdamConfig{.learning_rate = config.base.critic_lr}),
      replay_(config.replay_capacity),
      noise_(config.base.action_dim, config.noise_sigma, config.noise_decay,
             config.noise_min) {
  if (config.base.state_dim == 0 || config.base.action_dim == 0)
    throw std::invalid_argument("Ddpg: state/action dims must be set");
  actor_.attach_to(actor_optimizer_);
  critic_.attach_to(critic_optimizer_);
}

std::vector<double> Ddpg::act(const std::vector<double>& state, bool explore) {
  std::vector<double> action = actor_.infer_vector(state);
  if (explore) {
    const auto noise = noise_.sample(rng_);
    for (std::size_t i = 0; i < action.size(); ++i) {
      action[i] = std::clamp(action[i] + noise[i], 0.0, 1.0);
    }
  }
  return action;
}

void Ddpg::observe(const std::vector<double>& state, const std::vector<double>& action,
                   double reward, const std::vector<double>& next_state, bool done) {
  replay_.push(Transition{state, action, reward, next_state, done});
  ++observed_;
  if (replay_.size() >= config_.warmup && observed_ % config_.train_every == 0) {
    train_batch();
  }
}

void Ddpg::train_batch() {
  const auto train_span = global_tracer().span("ddpg.train_batch");
  const std::size_t batch = std::min(config_.batch_size, replay_.size());
  Batch minibatch = replay_.sample(batch, rng_);

  // --- Critic update: minimize MSBE (Eq. 16) against target value (Eq. 17).
  const nn::Matrix next_actions = actor_target_.infer(minibatch.next_states);
  const nn::Matrix q_next =
      critic_target_.infer(nn::hconcat(minibatch.next_states, next_actions));
  std::vector<double> targets(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    const double bootstrap = minibatch.done[i] ? 0.0 : config_.base.gamma * q_next(i, 0);
    targets[i] = minibatch.rewards[i] + bootstrap;
  }

  nn::Matrix sa = nn::hconcat(minibatch.states, minibatch.actions);
  const nn::Matrix q = critic_.forward(sa);
  nn::Matrix critic_grad(batch, 1);
  double loss = 0.0;
  for (std::size_t i = 0; i < batch; ++i) {
    const double err = q(i, 0) - targets[i];
    loss += err * err;
    critic_grad(i, 0) = 2.0 * err / static_cast<double>(batch);
  }
  last_critic_loss_ = loss / static_cast<double>(batch);
  critic_.backward(critic_grad, nn::Backprop::Parameters);
  critic_optimizer_.step();

  // --- Actor update: ascend E[Q(s, mu(s))] via the chain rule (Eq. 18).
  const nn::Matrix actions = actor_.forward(minibatch.states);
  // The state block of `sa` is unchanged; only the action columns differ
  // between the critic regression input and Q(s, mu(s)), so the batch
  // buffer is reused instead of concatenated afresh.
  sa.paste_columns(config_.base.state_dim, actions);
  const nn::Matrix q_of_mu = critic_.forward(sa);
  last_actor_objective_ = q_of_mu.total() / static_cast<double>(batch);
  // d(-J)/dQ = -1/B for each sample (gradient *descent* on -J).
  nn::Matrix minus_one(batch, 1, -1.0 / static_cast<double>(batch));
  // Only dL/d(s, a) is wanted: the critic is not updated by this pass.
  const nn::Matrix input_grad = critic_.backward(minus_one, nn::Backprop::Input);
  nn::Matrix action_grad =
      input_grad.slice_columns(config_.base.state_dim,
                               config_.base.state_dim + config_.base.action_dim);
  if (config_.inverting_gradients) {
    // action_grad is d(-J)/da: negative entries push the action up. Scale
    // upward pushes by the headroom to 1 and downward pushes by the
    // headroom to 0, keeping the policy off the saturated boundary.
    for (std::size_t r = 0; r < action_grad.rows(); ++r) {
      for (std::size_t k = 0; k < action_grad.cols(); ++k) {
        const double a = actions(r, k);
        action_grad(r, k) *= action_grad(r, k) < 0.0 ? (1.0 - a) : a;
      }
    }
  }
  actor_.backward(action_grad, nn::Backprop::Parameters);
  actor_optimizer_.step();

  // --- Target networks track slowly.
  actor_target_.soft_update_from(actor_, config_.tau);
  critic_target_.soft_update_from(critic_, config_.tau);
  ++updates_;

  auto& metrics = global_metrics();
  metrics.counter("ddpg.train_batches").add();
  metrics.gauge("ddpg.critic_loss").set(last_critic_loss_);
  metrics.gauge("ddpg.actor_objective").set(last_actor_objective_);
  metrics.gauge("ddpg.replay_occupancy")
      .set(static_cast<double>(replay_.size()) /
           static_cast<double>(std::max<std::size_t>(1, config_.replay_capacity)));
  metrics.gauge("ddpg.exploration_sigma").set(noise_.sigma());
}

void Ddpg::save_checkpoint(std::ostream& out) const {
  write_u64(out, config_.base.state_dim);
  write_u64(out, config_.base.action_dim);
  write_u64(out, config_.base.hidden);
  write_u64(out, config_.base.hidden_layers);
  // Hyperparameters that steer every post-resume gradient step. Stored so
  // load_checkpoint can reject an agent configured differently — a silent
  // mismatch would resume "successfully" onto a different trajectory.
  write_f64(out, config_.base.gamma);
  write_f64(out, config_.base.actor_lr);
  write_f64(out, config_.base.critic_lr);
  write_u64(out, config_.replay_capacity);
  write_u64(out, config_.batch_size);
  write_u64(out, config_.warmup);
  write_u64(out, config_.train_every);
  write_f64(out, config_.tau);
  write_f64(out, config_.noise_decay);
  write_f64(out, config_.noise_min);
  write_u8(out, config_.inverting_gradients ? 1 : 0);
  actor_.save_binary(out);
  critic_.save_binary(out);
  actor_target_.save_binary(out);
  critic_target_.save_binary(out);
  write_adam_state(out, actor_optimizer_);
  write_adam_state(out, critic_optimizer_);
  replay_.save_state(out);
  write_f64(out, noise_.sigma());
  write_string(out, rng_.serialize());
  write_u64(out, observed_);
  write_u64(out, updates_);
  write_f64(out, last_critic_loss_);
  write_f64(out, last_actor_objective_);
}

void Ddpg::load_checkpoint(std::istream& in) {
  constexpr const char* kContext = "Ddpg::load_checkpoint";
  const auto expect = [&](std::uint64_t stored, std::size_t configured,
                          const char* field) {
    if (stored != configured) {
      throw std::runtime_error(std::string(kContext) + ": " + field +
                               " mismatch (stored " + std::to_string(stored) +
                               ", configured " + std::to_string(configured) + ")");
    }
  };
  const auto expect_f64 = [&](double stored, double configured, const char* field) {
    // Bitwise comparison: these are copied configuration constants, not
    // computed values, so exact equality is the correct test.
    if (stored != configured) {
      throw std::runtime_error(std::string(kContext) + ": " + field +
                               " mismatch (stored " + std::to_string(stored) +
                               ", configured " + std::to_string(configured) + ")");
    }
  };
  expect(read_u64(in, kContext), config_.base.state_dim, "state_dim");
  expect(read_u64(in, kContext), config_.base.action_dim, "action_dim");
  expect(read_u64(in, kContext), config_.base.hidden, "hidden");
  expect(read_u64(in, kContext), config_.base.hidden_layers, "hidden_layers");
  expect_f64(read_f64(in, kContext), config_.base.gamma, "gamma");
  expect_f64(read_f64(in, kContext), config_.base.actor_lr, "actor_lr");
  expect_f64(read_f64(in, kContext), config_.base.critic_lr, "critic_lr");
  expect(read_u64(in, kContext), config_.replay_capacity, "replay_capacity");
  expect(read_u64(in, kContext), config_.batch_size, "batch_size");
  expect(read_u64(in, kContext), config_.warmup, "warmup");
  expect(read_u64(in, kContext), config_.train_every, "train_every");
  expect_f64(read_f64(in, kContext), config_.tau, "tau");
  expect_f64(read_f64(in, kContext), config_.noise_decay, "noise_decay");
  expect_f64(read_f64(in, kContext), config_.noise_min, "noise_min");
  expect(read_u8(in, kContext), config_.inverting_gradients ? 1u : 0u,
         "inverting_gradients");

  // Parse and validate everything into temporaries first, so a corrupt
  // stream leaves the agent untouched (no partially applied state).
  const std::vector<double> actor_theta = read_network_for(in, actor_, "actor");
  const std::vector<double> critic_theta = read_network_for(in, critic_, "critic");
  const std::vector<double> actor_target_theta =
      read_network_for(in, actor_target_, "actor_target");
  const std::vector<double> critic_target_theta =
      read_network_for(in, critic_target_, "critic_target");
  const nn::AdamState actor_opt_state = read_adam_state(in);
  const nn::AdamState critic_opt_state = read_adam_state(in);

  ReplayBuffer replay(config_.replay_capacity);
  replay.load_state(in);

  const double sigma = read_f64(in, kContext);
  const Rng rng = Rng::deserialize(read_string(in, kContext));
  const std::uint64_t observed = read_u64(in, kContext);
  const std::uint64_t updates = read_u64(in, kContext);
  const double last_critic_loss = read_f64(in, kContext);
  const double last_actor_objective = read_f64(in, kContext);

  // All parsed — apply. Parameters are copied into the existing layer
  // tensors (never reassigned) so the Adam slots' pointers stay valid.
  actor_.set_flat_parameters(actor_theta);
  critic_.set_flat_parameters(critic_theta);
  actor_target_.set_flat_parameters(actor_target_theta);
  critic_target_.set_flat_parameters(critic_target_theta);
  actor_optimizer_.restore_state(actor_opt_state);
  critic_optimizer_.restore_state(critic_opt_state);
  replay_ = std::move(replay);
  noise_.reset(sigma);
  rng_ = rng;
  observed_ = static_cast<std::size_t>(observed);
  updates_ = static_cast<std::size_t>(updates);
  last_critic_loss_ = last_critic_loss;
  last_actor_objective_ = last_actor_objective;
}

}  // namespace edgeslice::rl
