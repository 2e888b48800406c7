// The per-RA network slicing environment (Fig. 5).
//
// One RaEnvironment hosts the service queues of all slices in a resource
// autonomy, generates their traffic, converts an orchestration action into
// per-slice service rates through a ServiceModel, reports per-slice
// performance U, and shapes the DRL reward per Eq. 15:
//
//   r(s,a) = sum_i ( U_i - rho/2 * || U_i - c_i / T ||^2 )
//            - beta * sum_k [ sum_i x_{i,k} - R_k ]^+
//
// where c_i = z_i - y_i is the coordinating information. (Eq. 15 prints
// the coordination target as (z + y)/T; the augmented Lagrangian in Eq. 7
// penalizes ||sum_t U - z + y||^2, whose per-interval target is (z - y)/T,
// which also matches the state definition in Eq. 13 — we follow Eq. 7.)
#pragma once

#include <array>
#include <iosfwd>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "env/app_model.h"
#include "env/perf.h"
#include "env/service_model.h"

namespace edgeslice::env {

struct RaEnvironmentConfig {
  std::size_t slices = 2;
  double interval_seconds = 1.0;        // t: prototype 1 s, simulation 1 h (3600)
  std::size_t intervals_per_period = 10;  // T: prototype 10, simulation 24
  double rho = 1.0;                     // ADMM penalty (Sec. VII)
  double beta = 20.0;                   // reward-shaping weight (Sec. VI-A)
  double arrival_rate = 10.0;           // Poisson mean per interval (Sec. VII-C)
  std::size_t max_queue = 500;
  double state_queue_scale = 50.0;      // queue-length normalization for the NN
  double coordination_scale = 50.0;     // |z - y| normalization for the NN
  bool include_traffic_in_state = true; // false reproduces EdgeSlice-NT
  /// Numerical conditioning of the learning signal (performance metrics
  /// are reported raw; only the shaped reward handed to the DRL agent is
  /// affected). The quadratic ADMM term in Eq. 15 explodes when a starved
  /// queue saturates, so the reward is scaled and clipped to keep critic
  /// targets in a trainable range.
  double reward_scale = 0.01;
  double reward_clip = 500.0;           // |reward| bound after scaling; 0 = off
  /// Coordination values are clamped to [-clip, 0] on entry. During a
  /// transient SLA violation the raw z - y can be orders of magnitude
  /// below the range the agent was trained on, and the accumulated dual
  /// can push it *positive* — but every performance function here is
  /// non-positive, so a positive target is unreachable and reads as
  /// "maximize", which c = 0 already encodes. The clamp keeps the agent
  /// exactly on the trained manifold [-clip, 0]. 0 disables.
  double coordination_clip = 50.0;
  /// When true, over-subscribed resources are proportionally scaled before
  /// computing service times — the physical behaviour of the resource
  /// managers (a substrate cannot allocate more than 100%). When false,
  /// each slice's service time depends only on its own allocation and the
  /// capacity constraint is enforced purely through the beta penalty —
  /// exactly the paper's simulated training environment (Sec. VI-B, where
  /// the per-slice linear model knows nothing about other slices). Train
  /// with false, evaluate systems with true.
  bool enforce_capacity_scaling = true;
};

/// One slice queue's state: backlog, fractional service credit (the
/// service carry-over that makes a rate of 2.5 tasks/interval depart 2 or
/// 3 tasks), and the lifetime drop/arrival/departure counters.
struct QueueState {
  std::size_t length = 0;
  double credit = 0.0;
  std::size_t dropped = 0;
  std::size_t arrivals = 0;
  std::size_t departures = 0;
};

/// Result of advancing the environment by one time interval.
struct StepResult {
  std::vector<double> state;          // state observed before the action
  std::vector<double> next_state;
  double reward = 0.0;                // shaped reward (Eq. 15)
  std::vector<double> performance;    // U_i per slice (raw, for metrics)
  std::vector<double> queue_lengths;  // l_i after the interval
  std::vector<double> service_rates;  // tasks/interval granted per slice
  double constraint_violation = 0.0;  // sum_k [sum_i x_ik - 1]^+
};

class RaEnvironment {
 public:
  /// Resolves each slice's service model once (ServiceModel::resolve), so
  /// an unknown profile throws here, not at the first step.
  RaEnvironment(const RaEnvironmentConfig& config, std::vector<AppProfile> profiles,
                std::shared_ptr<const ServiceModel> service_model,
                std::shared_ptr<const PerformanceFunction> perf, Rng rng);

  /// Update the coordinating information c_i = z_i - y_i (one per slice).
  void set_coordination(const std::vector<double>& z_minus_y);
  const std::vector<double>& coordination() const { return coordination_; }

  /// Fault hook: per-resource service derate in [0, 1] (1 = healthy). The
  /// effective allocation seen by the service model is action * derate —
  /// a radio blackout is derate[0] = 0, a transport link failure
  /// derate[1] = 0, a compute slowdown by factor f derate[2] = 1/f. The
  /// agent's action, state, and reward shaping are untouched: faults
  /// degrade the substrate, not the controller's view of its own decision.
  void set_resource_derate(const std::array<double, kResources>& derate);
  const std::array<double, kResources>& resource_derate() const { return derate_; }

  /// Override per-slice Poisson arrival rates (traffic diversity; traces).
  /// Rates, like config.arrival_rate and profile rates, must be finite and
  /// >= 0; anything else throws std::invalid_argument.
  void set_arrival_rates(const std::vector<double>& rates);

  /// Drive arrivals from cyclic per-interval rate profiles (one vector per
  /// slice, e.g. a 24-hour trace-derived diurnal profile). The profile
  /// advances one bin per step and wraps around; it overrides the static
  /// rates until cleared with an empty vector.
  void set_arrival_profiles(std::vector<std::vector<double>> profiles);

  /// The DRL state (Eq. 13): normalized queue lengths (unless configured
  /// as EdgeSlice-NT) followed by normalized coordinating information.
  std::vector<double> state() const;
  /// state() into a caller-owned buffer (resized to state_dim()); the
  /// steady-state period loop reuses one buffer and never allocates.
  void state_into(std::vector<double>& out) const;
  std::size_t state_dim() const;
  std::size_t action_dim() const { return config_.slices * kResources; }

  /// Advance one interval under `action` (slice-major fractions,
  /// action[i * 3 + k]). Over-subscribed resources are proportionally
  /// scaled for physical service but penalized at full strength in the
  /// reward.
  StepResult step(const std::vector<double>& action);

  /// step() into a caller-owned result whose vectors are resized in place,
  /// so a loop reusing one StepResult runs allocation-free once warm.
  /// Bit-identical to step() — step() is implemented on top of this.
  void step_into(const std::vector<double>& action, StepResult& result);

  void reset();

  /// The environment's private random stream. Exposed so evaluation code
  /// that must be reproducible across calls (core::validate_policy) can
  /// save the stream, swap in a fixed one, and restore it afterwards.
  Rng& rng() { return rng_; }
  const Rng& rng() const { return rng_; }

  /// Serialize the mutable simulation state — the private Rng stream,
  /// step counter, per-resource derates, coordination targets, arrival
  /// rates/profiles, last service times, and every queue (including its
  /// fractional service credit) — as the "environment blob" of
  /// FORMATS.md. Configuration and models are NOT serialized: they are
  /// re-derived from the experiment config, and load_state() verifies the
  /// blob was written by an environment of the same shape.
  void save_state(std::ostream& out) const;
  /// Restore into this environment. Slice count and queue bound must
  /// match; throws std::runtime_error on mismatch or corruption without
  /// partially applying state.
  void load_state(std::istream& in);

  const RaEnvironmentConfig& config() const { return config_; }
  std::size_t slice_count() const { return config_.slices; }
  /// Snapshot of slice `slice`'s queue, gathered from the
  /// structure-of-arrays state (see below). Use
  /// queue_length()/queue_lengths() on hot paths.
  QueueState queue(std::size_t slice) const;
  /// O(1) direct accessors over the contiguous queue-state arrays.
  std::size_t queue_length(std::size_t slice) const { return queue_length_.at(slice); }
  const std::vector<std::size_t>& queue_lengths() const { return queue_length_; }
  const AppProfile& profile(std::size_t slice) const { return profiles_.at(slice); }
  double arrival_rate(std::size_t slice) const { return arrival_rates_.at(slice); }

 private:
  RaEnvironmentConfig config_;
  std::vector<AppProfile> profiles_;
  std::shared_ptr<const ServiceModel> service_model_;
  /// service_model_->resolve(profiles_[i]) per slice, resolved once at
  /// construction so a step makes no by-profile lookup.
  std::vector<const ServiceModel*> slice_models_;
  std::shared_ptr<const PerformanceFunction> perf_;
  Rng rng_;
  /// Per-slice queue state as structure-of-arrays: the period hot path
  /// touches every slice every interval, so lengths/credits live in
  /// contiguous arrays scanned linearly instead of per-object scatter.
  /// Each step admits arrivals up to max_queue (counting the drops), then
  /// serves at the step's rate with fractional credit that an idle or
  /// drained queue forfeits. The one-object reference of these semantics
  /// is SliceQueue in tests/env/slice_queue.h, which the environment's
  /// queues are checked against field by field.
  std::vector<std::size_t> queue_length_;
  std::vector<double> queue_credit_;
  std::vector<std::size_t> queue_dropped_;
  std::vector<std::size_t> queue_arrivals_;
  std::vector<std::size_t> queue_departures_;
  std::array<double, kResources> derate_{1.0, 1.0, 1.0};
  std::vector<double> coordination_;
  std::vector<double> arrival_rates_;
  std::vector<std::vector<double>> arrival_profiles_;
  std::size_t step_count_ = 0;
  std::vector<double> last_service_time_;
};

}  // namespace edgeslice::env
