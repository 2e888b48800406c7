// train_ddpg: DDPG training jobs on the 5-slice simulation environment,
// with bench/common.cpp's recipe (hidden 64, batch 64, warm-up 128,
// validation every max(1000, steps/12) at the clamp boundary), driven
// through core::train_agent with no agent cache.
//
// Every timed job is built from the run's seed, so each must reproduce
// the reward history of the untimed warm-up job; the gate job at the
// pinned seed must reproduce its pinned digest.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "core/training.h"
#include "decorators.h"
#include "env/environment.h"
#include "env/perf.h"
#include "nn/gemm.h"
#include "rl/ddpg.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace edgeslice;

constexpr std::size_t kSlices = 5;
constexpr std::size_t kJobSteps = 1000;
constexpr std::size_t kGateSteps = 300;
constexpr std::uint64_t kGateSeed = 1;
constexpr std::size_t kSetupsPerJob = 4;  // untrained set-ups timed for setup_s

// Digests of the gate job (rewards, validations, trained actor), per GEMM
// backend: the backends round differently, so the trained weights differ.
constexpr std::uint64_t kPinScalar = 0x601a07e00bbfca16ULL;
constexpr std::uint64_t kPinAvx2 = 0x0a62014cad061709ULL;

struct Trained {
  std::uint64_t digest = 0;
  bool finite = true;
};

class Job {
 public:
  Job(std::uint64_t seed, bool decorated) : rng_(seed) {
    Rng profile_rng(seed);
    const auto profiles = make_profiles(kSlices, profile_rng);
    std::shared_ptr<const env::ServiceModel> model = make_service_model(profiles);
    std::shared_ptr<const env::PerformanceFunction> perf = env::make_queue_power_perf(2.0);
    if (decorated) {
      model_ = std::make_shared<TimedServiceModel>(model);
      perf_ = std::make_shared<TimedPerformance>(perf);
      model = model_;
      perf = perf_;
    }
    env::RaEnvironmentConfig env_config;  // T = 10, arrival rate 10
    env_config.slices = kSlices;
    env_config.include_traffic_in_state = true;
    environment_.emplace(env_config, profiles, model, perf, rng_.spawn());

    rl::DdpgConfig config;
    config.base.state_dim = environment_->state_dim();
    config.base.action_dim = environment_->action_dim();
    config.base.hidden = 64;
    config.batch_size = 64;
    config.warmup = 128;
    config.noise_decay = 0.9996;
    config.noise_min = 0.08;
    agent_.emplace(config, rng_);
    if (decorated) timed_.emplace(*agent_);
  }
  // timed_ refers to agent_: the job stays where it was built.
  Job(const Job&) = delete;
  Job& operator=(const Job&) = delete;

  /// Train for `steps` and digest the outcome: reward and validation
  /// histories plus the trained actor's parameters, so every bit of the
  /// training computation (forward, backward, Adam) reaches the digest.
  Trained train(std::size_t steps) {
    core::TrainingConfig config;
    config.steps = steps;
    config.randomize_traffic = false;
    config.validation_every = std::max<std::size_t>(1000, steps / 12);
    config.validation_coordination = -50.0;
    rl::Agent& agent = timed_ ? static_cast<rl::Agent&>(*timed_) : *agent_;
    const core::TrainingResult result = core::train_agent(agent, *environment_, config, rng_);
    std::ostringstream actor;
    agent_->policy_network()->save_binary(actor);
    const std::string bytes = actor.str();
    Trained trained;
    trained.digest = fnv1a(result.reward_history);
    trained.digest = fnv1a(result.validation_history, trained.digest);
    trained.digest = fnv1a(bytes.data(), bytes.size(), trained.digest);
    trained.finite = std::all_of(result.reward_history.begin(), result.reward_history.end(),
                                 [](double r) { return std::isfinite(r); });
    return trained;
  }

  const TimedAgent* timed() const { return timed_ ? &*timed_ : nullptr; }
  Accum service_model() const { return model_ ? model_->accum.estimate() : Accum{}; }
  Accum performance() const { return perf_ ? perf_->accum.estimate() : Accum{}; }

 private:
  Rng rng_;
  std::shared_ptr<TimedServiceModel> model_;
  std::shared_ptr<TimedPerformance> perf_;
  std::optional<env::RaEnvironment> environment_;
  std::optional<rl::Ddpg> agent_;
  std::optional<TimedAgent> timed_;
};

struct Leg {
  std::vector<double> job_seconds;
  double train_seconds = 0.0;
  std::uint64_t steps = 0;
  std::uint64_t failed_steps = 0;
  // Traced legs: decorator and span totals over all jobs.
  Accum act_explore, act_greedy, observe, service_model, performance;
};

/// Steps per second over every job of the leg: the machine's slow and fast
/// spells are averaged in proportion instead of one of them deciding.
double rate(const Leg& leg) { return static_cast<double>(leg.steps) / leg.train_seconds; }

void add(Accum& total, const Accum& a) {
  total.calls += a.calls;
  total.seconds += a.seconds;
}

/// Run whole jobs for `seconds` of training time (at least one), each
/// checked against the reference digest.
Leg measure(const Options& options, double seconds, bool decorated, std::uint64_t reference,
            std::vector<double>& setup_seconds, Result& result) {
  Leg leg;
  do {
    // A set-up takes a few milliseconds and fits one service model per
    // distinct slice profile, of which a seed draws 2 to 5: time the gate
    // job's set-up kSetupsPerJob times before every job, so that the
    // samples are spread over the leg like the jobs, and setup_s, their
    // fastest, depends on neither the run's seed nor one moment.
    for (std::size_t i = 0; i < kSetupsPerJob; ++i) {
      const auto setup_start = Clock::now();
      const Job extra(kGateSeed, false);
      setup_seconds.push_back(seconds_since(setup_start));
    }
    Job job(options.seed, decorated);
    const auto start = Clock::now();
    const Trained trained = job.train(kJobSteps);
    const double elapsed = seconds_since(start);
    leg.job_seconds.push_back(elapsed);
    leg.train_seconds += elapsed;
    leg.steps += kJobSteps;
    if (!trained.finite) leg.failed_steps += kJobSteps;
    result.check(trained.digest == reference,
                 "job digest " + hex(trained.digest) + " != warm-up " + hex(reference));
    if (const TimedAgent* timed = job.timed()) {
      add(leg.act_explore, timed->act_explore);
      add(leg.act_greedy, timed->act_greedy);
      add(leg.observe, timed->observe_calls);
      add(leg.service_model, job.service_model());
      add(leg.performance, job.performance());
    }
  } while (leg.train_seconds < seconds);
  return leg;
}

}  // namespace

Result run_train_ddpg(const Options& options) {
  Result result;
  std::vector<double> setup_seconds;
  const bool avx2 = nn::active_gemm_backend() == nn::GemmBackend::Avx2;
  const std::uint64_t pin = avx2 ? kPinAvx2 : kPinScalar;

  {
    Job gate(kGateSeed, false);
    const std::uint64_t gate_digest = gate.train(kGateSteps).digest;
    std::printf("# gate digest %s (pinned %s)\n", hex(gate_digest).c_str(),
                hex(pin).c_str());
    result.check(gate_digest == pinned(options, pin),
                 "gate reward digest " + hex(gate_digest) + " != pinned " + hex(pin));
  }
  // Untimed warm-up job at the run's seed: the reference every timed job
  // must reproduce.
  std::uint64_t reference = 0;
  {
    Job warm(options.seed, false);
    reference = warm.train(kJobSteps).digest;
  }
  set_metrics_enabled(false);
  const double untraced_seconds = options.trace ? options.seconds / 2 : options.seconds;
  const Leg leg = measure(options, untraced_seconds, false, reference, setup_seconds, result);
  result.attempted = leg.steps;
  result.failed = leg.failed_steps;
  const double steps_per_s = rate(leg);
  std::printf("# jobs %zu x %zu steps in %.3f s; reward digest %s\n", leg.job_seconds.size(),
              kJobSteps, leg.train_seconds, hex(reference).c_str());

  if (!options.trace) {
    result.add("setup_s", fastest(setup_seconds), "s");
    result.add("peak_rss_mb", peak_rss_mb(), "MB");
    result.add("ok_share",
               1.0 - static_cast<double>(leg.failed_steps) / static_cast<double>(leg.steps),
               "ratio");
    result.add("throughput_per_s", steps_per_s, "1/s");
    result.add("latency_mean_ms", mean(leg.job_seconds) * 1e3, "ms");
    result.add("latency_p99_ms", quantile(leg.job_seconds, 0.99) * 1e3, "ms");
    return result;
  }

  set_metrics_enabled(true);
  const Leg t = measure(options, options.seconds / 2, true, reference, setup_seconds, result);
  set_metrics_enabled(false);
  const SpanSum train_batch = span_sum("ddpg.train_batch");
  const double steps = static_cast<double>(t.steps);
  const auto per_step_us = [&](double seconds) { return seconds / steps * 1e6; };
  const double observe_self = t.observe.seconds - train_batch.seconds;
  const double residual =
      t.train_seconds - t.act_explore.seconds - t.act_greedy.seconds - t.observe.seconds;
  result.check(observe_self >= 0.0 && residual >= 0.0, "negative unattributed step time");

  result.add("trace_overhead", steps_per_s / rate(t) - 1.0, "ratio");
  result.add("train.step_us", per_step_us(t.train_seconds), "us");
  result.add("rl.act_explore_us", per_step_us(t.act_explore.seconds), "us");
  result.add("rl.act_explore_calls", static_cast<double>(t.act_explore.calls) / steps, "count");
  result.add("rl.act_greedy_us", per_step_us(t.act_greedy.seconds), "us");
  result.add("rl.act_greedy_calls", static_cast<double>(t.act_greedy.calls) / steps, "count");
  result.add("rl.observe_us", per_step_us(observe_self), "us");
  result.add("rl.train_batch_us", per_step_us(train_batch.seconds), "us");
  result.add("rl.train_batches", static_cast<double>(train_batch.count) / steps, "count");
  result.add("env.service_model_us", per_step_us(t.service_model.seconds), "us");
  result.add("env.service_model_calls", static_cast<double>(t.service_model.calls) / steps,
             "count");
  result.add("env.perf_fn_us", per_step_us(t.performance.seconds), "us");
  result.add("env.perf_fn_calls", static_cast<double>(t.performance.calls) / steps, "count");
  result.add("train.unattributed_us", per_step_us(residual), "us");
  return result;
}

}  // namespace perfbench
