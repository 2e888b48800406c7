// Interface decorators: the traced run measures a layer from outside by
// wrapping the interface the program already takes for it, and forwards
// every call unchanged (digests are compared with and without them).
//
//   TimedPolicy        core::RaPolicy        policy decide, env step bracket
//   TimedServiceModel  env::ServiceModel     service-time queries
//   TimedPerformance   env::PerformanceFunction
//   TimedAgent         rl::Agent             act (explore / greedy), observe
//
// Each instance is touched by one thread at a time (one policy, service
// model and performance function per RA), so the accumulators need no
// synchronisation; the pool's barrier orders them before the runner reads.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/policies.h"
#include "env/perf.h"
#include "env/service_model.h"
#include "harness.h"
#include "rl/agent.h"

namespace perfbench {

/// Calls into one layer and the seconds spent in them.
struct Accum {
  std::uint64_t calls = 0;
  double seconds = 0.0;
};

/// Calls counted exactly; one call in kStride timed and scaled up, so the
/// decorator's clock reads stay small beside a call of a few tens of ns.
/// The stride is co-prime with the slice counts, so samples rotate over
/// slices instead of aliasing onto one.
class SampledAccum {
 public:
  static constexpr std::uint64_t kStride = 17;

  template <typename F>
  auto time(F&& call) const {
    if (calls_++ % kStride != 0) return call();
    const auto start = Clock::now();
    auto result = call();
    seconds_ += seconds_since(start);
    ++timed_;
    return result;
  }
  Accum estimate() const {
    Accum a;
    a.calls = calls_;
    a.seconds = timed_ == 0 ? 0.0
                            : seconds_ * static_cast<double>(calls_) /
                                  static_cast<double>(timed_);
    return a;
  }
  void reset() { calls_ = timed_ = 0, seconds_ = 0.0; }

 private:
  mutable std::uint64_t calls_ = 0;
  mutable std::uint64_t timed_ = 0;
  mutable double seconds_ = 0.0;
};

class TimedPolicy final : public edgeslice::core::RaPolicy {
 public:
  explicit TimedPolicy(std::unique_ptr<edgeslice::core::RaPolicy> inner)
      : inner_(std::move(inner)) {}

  std::vector<double> decide(const edgeslice::env::RaEnvironment& environment) override {
    std::vector<double> action;
    decide_into(environment, action);
    return action;
  }
  void decide_into(const edgeslice::env::RaEnvironment& environment,
                   std::vector<double>& action) override {
    const auto start = Clock::now();
    inner_->decide_into(environment, action);
    const auto end = Clock::now();
    decide_time.seconds += seconds_between(start, end);
    ++decide_time.calls;
    if (!touched) first_entry = start;
    touched = true;
    decided_at_ = end;
    step_pending_ = true;
  }
  /// The environment step runs between decide_into's return and this call
  /// (both paths of the period loop); batched RAs skip decide_into, so no
  /// step is bracketed for them.
  void feedback(const edgeslice::env::StepResult& result) override {
    const auto start = Clock::now();
    if (step_pending_) {
      step_time.seconds += seconds_between(decided_at_, start);
      ++step_time.calls;
      step_pending_ = false;
    }
    inner_->feedback(result);
    last_exit = Clock::now();
  }
  std::string name() const override { return inner_->name(); }
  const edgeslice::nn::Mlp* inference_network() const override {
    return inner_->inference_network();
  }

  Accum decide_time;
  Accum step_time;
  /// Wall-clock bracket of this RA's activity in the current period:
  /// first decide_into entry and last feedback exit. The runner clears
  /// `touched` before each period.
  bool touched = false;
  Clock::time_point first_entry{};
  Clock::time_point last_exit{};

 private:
  std::unique_ptr<edgeslice::core::RaPolicy> inner_;
  Clock::time_point decided_at_{};
  bool step_pending_ = false;
};

class TimedServiceModel final : public edgeslice::env::ServiceModel {
 public:
  explicit TimedServiceModel(std::shared_ptr<const edgeslice::env::ServiceModel> inner)
      : inner_(std::move(inner)) {}
  double service_time(const edgeslice::env::AppProfile& profile,
                      const edgeslice::env::Allocation& allocation) const override {
    return accum.time([&] { return inner_->service_time(profile, allocation); });
  }
  SampledAccum accum;

 private:
  std::shared_ptr<const edgeslice::env::ServiceModel> inner_;
};

class TimedPerformance final : public edgeslice::env::PerformanceFunction {
 public:
  explicit TimedPerformance(std::shared_ptr<const edgeslice::env::PerformanceFunction> inner)
      : inner_(std::move(inner)) {}
  double evaluate(const edgeslice::env::PerfObservation& observation) const override {
    return accum.time([&] { return inner_->evaluate(observation); });
  }
  std::string name() const override { return inner_->name(); }
  SampledAccum accum;

 private:
  std::shared_ptr<const edgeslice::env::PerformanceFunction> inner_;
};

class TimedAgent final : public edgeslice::rl::Agent {
 public:
  explicit TimedAgent(edgeslice::rl::Agent& inner) : inner_(inner) {}

  std::vector<double> act(const std::vector<double>& state, bool explore) override {
    const auto start = Clock::now();
    std::vector<double> action = inner_.act(state, explore);
    Accum& a = explore ? act_explore : act_greedy;
    a.seconds += seconds_since(start);
    ++a.calls;
    return action;
  }
  void observe(const std::vector<double>& state, const std::vector<double>& action,
               double reward, const std::vector<double>& next_state, bool done) override {
    const auto start = Clock::now();
    inner_.observe(state, action, reward, next_state, done);
    observe_calls.seconds += seconds_since(start);
    ++observe_calls.calls;
  }
  std::string name() const override { return inner_.name(); }
  std::size_t state_dim() const override { return inner_.state_dim(); }
  std::size_t action_dim() const override { return inner_.action_dim(); }
  std::size_t update_count() const override { return inner_.update_count(); }
  const edgeslice::nn::Mlp* policy_network() const override {
    return inner_.policy_network();
  }
  const edgeslice::nn::Mlp* inference_actor() const override {
    return inner_.inference_actor();
  }

  Accum act_explore;
  Accum act_greedy;
  Accum observe_calls;

 private:
  edgeslice::rl::Agent& inner_;
};

}  // namespace perfbench
