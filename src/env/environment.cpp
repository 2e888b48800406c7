#include "env/environment.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/binio.h"

namespace edgeslice::env {

namespace {

/// A Poisson mean the environment can draw from: finite and non-negative.
bool valid_rate(double rate) { return rate >= 0.0 && std::isfinite(rate); }

}  // namespace

RaEnvironment::RaEnvironment(const RaEnvironmentConfig& config,
                             std::vector<AppProfile> profiles,
                             std::shared_ptr<const ServiceModel> service_model,
                             std::shared_ptr<const PerformanceFunction> perf, Rng rng)
    : config_(config),
      profiles_(std::move(profiles)),
      service_model_(std::move(service_model)),
      perf_(std::move(perf)),
      rng_(rng),
      queue_length_(config.slices, 0),
      queue_credit_(config.slices, 0.0),
      queue_dropped_(config.slices, 0),
      queue_arrivals_(config.slices, 0),
      queue_departures_(config.slices, 0),
      coordination_(config.slices, 0.0),
      arrival_rates_(config.slices, config.arrival_rate),
      last_service_time_(config.slices, 0.0) {
  if (profiles_.size() != config_.slices)
    throw std::invalid_argument("RaEnvironment: one profile per slice required");
  if (!service_model_ || !perf_)
    throw std::invalid_argument("RaEnvironment: null model or performance function");
  if (config_.max_queue == 0)
    throw std::invalid_argument("RaEnvironment: zero max_queue");
  if (!valid_rate(config_.arrival_rate))
    throw std::invalid_argument("RaEnvironment: arrival rate must be finite and >= 0");
  slice_models_.reserve(config_.slices);
  for (const auto& profile : profiles_) {
    slice_models_.push_back(&service_model_->resolve(profile));
  }
}

QueueState RaEnvironment::queue(std::size_t slice) const {
  if (slice >= config_.slices)
    throw std::out_of_range("RaEnvironment::queue: bad slice");
  return QueueState{queue_length_[slice], queue_credit_[slice], queue_dropped_[slice],
                    queue_arrivals_[slice], queue_departures_[slice]};
}

void RaEnvironment::set_coordination(const std::vector<double>& z_minus_y) {
  if (z_minus_y.size() != config_.slices)
    throw std::invalid_argument("RaEnvironment: coordination size mismatch");
  coordination_ = z_minus_y;
  if (config_.coordination_clip > 0.0) {
    for (auto& c : coordination_) {
      c = std::clamp(c, -config_.coordination_clip, 0.0);
    }
  }
}

void RaEnvironment::set_resource_derate(const std::array<double, kResources>& derate) {
  for (double d : derate) {
    if (!(d >= 0.0 && d <= 1.0))
      throw std::invalid_argument("RaEnvironment: derate must be in [0,1]");
  }
  derate_ = derate;
}

void RaEnvironment::set_arrival_rates(const std::vector<double>& rates) {
  if (rates.size() != config_.slices)
    throw std::invalid_argument("RaEnvironment: arrival-rate size mismatch");
  for (double r : rates) {
    if (!valid_rate(r))
      throw std::invalid_argument("RaEnvironment: negative or non-finite arrival rate");
  }
  arrival_rates_ = rates;
}

void RaEnvironment::set_arrival_profiles(std::vector<std::vector<double>> profiles) {
  if (!profiles.empty()) {
    if (profiles.size() != config_.slices)
      throw std::invalid_argument("RaEnvironment: one arrival profile per slice");
    for (const auto& p : profiles) {
      if (p.empty()) throw std::invalid_argument("RaEnvironment: empty arrival profile");
      for (double r : p) {
        if (!valid_rate(r))
          throw std::invalid_argument("RaEnvironment: negative or non-finite profile rate");
      }
    }
  }
  arrival_profiles_ = std::move(profiles);
}

std::size_t RaEnvironment::state_dim() const {
  return config_.include_traffic_in_state ? 2 * config_.slices : config_.slices;
}

void RaEnvironment::state_into(std::vector<double>& out) const {
  out.resize(state_dim());
  std::size_t n = 0;
  if (config_.include_traffic_in_state) {
    for (std::size_t i = 0; i < config_.slices; ++i) {
      out[n++] = static_cast<double>(queue_length_[i]) / config_.state_queue_scale;
    }
  }
  for (double c : coordination_) {
    out[n++] = c / config_.coordination_scale;
  }
}

std::vector<double> RaEnvironment::state() const {
  std::vector<double> s;
  state_into(s);
  return s;
}

void RaEnvironment::step_into(const std::vector<double>& action, StepResult& result) {
  if (action.size() != action_dim())
    throw std::invalid_argument("RaEnvironment::step: action size mismatch");
  for (double a : action) {
    if (!(a >= -1e-9 && a <= 1.0 + 1e-9))
      throw std::invalid_argument("RaEnvironment::step: action outside [0,1] or NaN");
  }

  state_into(result.state);
  result.constraint_violation = 0.0;

  // Raw per-resource sums for the shaping penalty (Eq. 15's [.]^+ term).
  std::array<double, kResources> usage{};
  for (std::size_t i = 0; i < config_.slices; ++i) {
    for (std::size_t k = 0; k < kResources; ++k) {
      usage[k] += std::clamp(action[i * kResources + k], 0.0, 1.0);
    }
  }
  for (std::size_t k = 0; k < kResources; ++k) {
    result.constraint_violation += std::max(0.0, usage[k] - 1.0);
  }

  // Physical scaling: a resource cannot be over-allocated in the substrate.
  // (Disabled in the paper-faithful training configuration, where the
  // constraint lives only in the reward.)
  std::array<double, kResources> scale{};
  for (std::size_t k = 0; k < kResources; ++k) {
    scale[k] = (config_.enforce_capacity_scaling && usage[k] > 1.0) ? 1.0 / usage[k] : 1.0;
  }

  // Arrivals, then service. The queue updates inline SliceQueue's
  // arrive()/serve() over the structure-of-arrays state, operation for
  // operation, so trajectories are bit-identical to the per-object queues.
  result.performance.resize(config_.slices);
  result.queue_lengths.resize(config_.slices);
  result.service_rates.resize(config_.slices);
  for (std::size_t i = 0; i < config_.slices; ++i) {
    const double arrival_mean =
        arrival_profiles_.empty()
            ? arrival_rates_[i]
            : arrival_profiles_[i][step_count_ % arrival_profiles_[i].size()];
    const auto count = static_cast<std::size_t>(rng_.poisson(arrival_mean));
    queue_arrivals_[i] += count;
    const std::size_t admitted = std::min(count, config_.max_queue - queue_length_[i]);
    queue_length_[i] += admitted;
    queue_dropped_[i] += count - admitted;

    Allocation alloc{};
    for (std::size_t k = 0; k < kResources; ++k) {
      alloc[k] = std::clamp(action[i * kResources + k], 0.0, 1.0) * scale[k] * derate_[k];
    }
    const double tau = slice_models_[i]->service_time(profiles_[i], alloc);
    last_service_time_[i] = tau;
    const double rate = tau > 0.0 ? config_.interval_seconds / tau : 0.0;
    result.service_rates[i] = rate;
    if (queue_length_[i] == 0) {
      // Service capacity is not bankable while idle.
      queue_credit_[i] = 0.0;
    } else {
      queue_credit_[i] += rate;
      const auto departures = std::min(
          queue_length_[i], static_cast<std::size_t>(std::floor(queue_credit_[i])));
      queue_credit_[i] -= static_cast<double>(departures);
      queue_length_[i] -= departures;
      queue_departures_[i] += departures;
      if (queue_length_[i] == 0) queue_credit_[i] = 0.0;
    }

    PerfObservation obs;
    obs.queue_length = static_cast<double>(queue_length_[i]);
    obs.service_time = tau;
    result.performance[i] = perf_->evaluate(obs);
    result.queue_lengths[i] = obs.queue_length;
  }

  // Reward shaping per Eq. 15.
  double reward = 0.0;
  const double T = static_cast<double>(config_.intervals_per_period);
  for (std::size_t i = 0; i < config_.slices; ++i) {
    const double target = coordination_[i] / T;
    const double deviation = result.performance[i] - target;
    reward += result.performance[i] - 0.5 * config_.rho * deviation * deviation;
  }
  reward -= config_.beta * result.constraint_violation;
  reward *= config_.reward_scale;
  if (config_.reward_clip > 0.0) {
    reward = std::clamp(reward, -config_.reward_clip, config_.reward_clip);
  }
  result.reward = reward;
  state_into(result.next_state);
  ++step_count_;
}

StepResult RaEnvironment::step(const std::vector<double>& action) {
  StepResult result;
  step_into(action, result);
  return result;
}

void RaEnvironment::save_state(std::ostream& out) const {
  write_u64(out, config_.slices);
  write_u64(out, config_.max_queue);
  write_string(out, rng_.serialize());
  write_u64(out, step_count_);
  for (double d : derate_) write_f64(out, d);
  write_f64_vector(out, coordination_);
  write_f64_vector(out, arrival_rates_);
  write_u64(out, arrival_profiles_.size());
  for (const auto& profile : arrival_profiles_) write_f64_vector(out, profile);
  write_f64_vector(out, last_service_time_);
  for (std::size_t i = 0; i < config_.slices; ++i) {
    write_u64(out, queue_length_[i]);
    write_f64(out, queue_credit_[i]);
    write_u64(out, queue_dropped_[i]);
    write_u64(out, queue_arrivals_[i]);
    write_u64(out, queue_departures_[i]);
  }
}

void RaEnvironment::load_state(std::istream& in) {
  constexpr const char* kContext = "RaEnvironment::load_state";
  const auto fail = [&](const std::string& what) {
    throw std::runtime_error(std::string(kContext) + ": " + what);
  };
  const std::uint64_t slices = read_u64(in, kContext);
  if (slices != config_.slices) {
    fail("slice count mismatch (stored " + std::to_string(slices) + ", configured " +
         std::to_string(config_.slices) + ")");
  }
  const std::uint64_t max_queue = read_u64(in, kContext);
  if (max_queue != config_.max_queue) {
    fail("max_queue mismatch (stored " + std::to_string(max_queue) + ", configured " +
         std::to_string(config_.max_queue) + ")");
  }

  // Parse and validate everything into temporaries, then apply (a corrupt
  // blob must not leave the environment half-restored).
  const Rng rng = Rng::deserialize(read_string(in, kContext));
  const std::uint64_t step_count = read_u64(in, kContext);
  std::array<double, kResources> derate{};
  for (auto& d : derate) {
    d = read_f64(in, kContext);
    if (!(d >= 0.0 && d <= 1.0)) fail("derate outside [0,1]");
  }
  const std::vector<double> coordination = read_f64_vector(in, kContext);
  if (coordination.size() != config_.slices) fail("coordination size mismatch");
  const std::vector<double> arrival_rates = read_f64_vector(in, kContext);
  if (arrival_rates.size() != config_.slices) fail("arrival-rate size mismatch");
  for (double r : arrival_rates) {
    if (!valid_rate(r)) fail("negative or non-finite arrival rate");
  }
  const std::uint64_t profile_count = read_u64(in, kContext);
  if (profile_count != 0 && profile_count != config_.slices) {
    fail("arrival-profile count mismatch");
  }
  std::vector<std::vector<double>> profiles;
  profiles.reserve(static_cast<std::size_t>(profile_count));
  for (std::uint64_t i = 0; i < profile_count; ++i) {
    profiles.push_back(read_f64_vector(in, kContext));
    if (profiles.back().empty()) fail("empty arrival profile");
    for (double r : profiles.back()) {
      if (!valid_rate(r)) fail("negative or non-finite profile rate");
    }
  }
  const std::vector<double> last_service_time = read_f64_vector(in, kContext);
  if (last_service_time.size() != config_.slices) fail("service-time size mismatch");

  std::vector<QueueState> queue_states(config_.slices);
  for (auto& qs : queue_states) {
    qs.length = static_cast<std::size_t>(read_u64(in, kContext));
    qs.credit = read_f64(in, kContext);
    qs.dropped = static_cast<std::size_t>(read_u64(in, kContext));
    qs.arrivals = static_cast<std::size_t>(read_u64(in, kContext));
    qs.departures = static_cast<std::size_t>(read_u64(in, kContext));
    // Pre-validated (backlog within bound, finite non-negative credit, no
    // more departures than arrivals), so the writes below cannot fail
    // after part of the environment is overwritten.
    if (qs.length > config_.max_queue) fail("queue backlog exceeds max_queue");
    if (!std::isfinite(qs.credit) || qs.credit < 0.0) fail("bad queue service credit");
    if (qs.departures > qs.arrivals) fail("queue departures exceed arrivals");
  }

  rng_ = rng;
  step_count_ = static_cast<std::size_t>(step_count);
  derate_ = derate;
  coordination_ = coordination;
  arrival_rates_ = arrival_rates;
  arrival_profiles_ = std::move(profiles);
  last_service_time_ = last_service_time;
  for (std::size_t i = 0; i < config_.slices; ++i) {
    const QueueState& qs = queue_states[i];
    queue_length_[i] = qs.length;
    queue_credit_[i] = qs.credit;
    queue_dropped_[i] = qs.dropped;
    queue_arrivals_[i] = qs.arrivals;
    queue_departures_[i] = qs.departures;
  }
}

void RaEnvironment::reset() {
  std::fill(queue_length_.begin(), queue_length_.end(), 0);
  std::fill(queue_credit_.begin(), queue_credit_.end(), 0.0);
  std::fill(queue_dropped_.begin(), queue_dropped_.end(), 0);
  std::fill(queue_arrivals_.begin(), queue_arrivals_.end(), 0);
  std::fill(queue_departures_.begin(), queue_departures_.end(), 0);
  std::fill(last_service_time_.begin(), last_service_time_.end(), 0.0);
  step_count_ = 0;
}

}  // namespace edgeslice::env
