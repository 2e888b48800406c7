// City workloads: 128 RAs x 8 slices (1,024 slice queues) replaying a
// synthetic diurnal day through EdgeSliceSystem::run_period_into, with the
// SLA watchdog live — the shape and seeding of bench/city_scale.
//
//   city_actor      every RA a LearnedPolicy (learn = false) over one
//                   shared frozen actor, sequential loop, batched inference
//   city_taro_pool  every RA under TARO on a 2-thread pool (no GEMM)
//
// Per run: a gate city at the pinned seed, a reference city at the run's
// seed (1-thread TARO, or unbatched per-RA inference for the actor), then
// the timed city, whose warm-up day must reproduce the reference digest.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace_span.h"
#include "core/policies.h"
#include "core/system.h"
#include "decorators.h"
#include "env/environment.h"
#include "env/perf.h"
#include "nn/gemm.h"
#include "nn/mlp.h"
#include "obs/sla_watchdog.h"
#include "rl/frozen.h"
#include "trace/diurnal.h"
#include "workloads.h"

namespace perfbench {

using namespace edgeslice;

std::vector<env::AppProfile> make_profiles(std::size_t slices, Rng& rng) {
  std::vector<env::AppProfile> profiles;
  profiles.reserve(slices);
  if (slices >= 1) profiles.push_back(env::slice1_profile());
  if (slices >= 2) profiles.push_back(env::slice2_profile());
  const env::FrameResolution resolutions[] = {env::FrameResolution::R100x100,
                                              env::FrameResolution::R300x300,
                                              env::FrameResolution::R500x500};
  const env::YoloModel models[] = {env::YoloModel::Y320, env::YoloModel::Y416,
                                   env::YoloModel::Y608};
  while (profiles.size() < slices) {
    profiles.push_back(
        env::make_profile(resolutions[rng.index(3)], models[rng.index(3)]));
  }
  return profiles;
}

std::shared_ptr<const env::ServiceModel> make_service_model(
    const std::vector<env::AppProfile>& profiles) {
  const env::DirectServiceModel ground_truth(env::prototype_capacity());
  return std::make_shared<env::PerProfileLinearServiceModel>(profiles, ground_truth, 0.1);
}

namespace {

constexpr std::size_t kRas = 128;
constexpr std::size_t kSlices = 8;
constexpr std::size_t kIntervals = 6;
constexpr std::size_t kDayPeriods = 24;  // one day; profiles wrap after it
constexpr double kPeakRate = 3.5;
constexpr std::size_t kHidden = 64;
constexpr std::size_t kPoolThreads = 2;
constexpr std::uint64_t kGateSeed = 1;
constexpr std::size_t kSetupBuilds = 96;
constexpr double kWindowSeconds = 1.0;  // windows of the period p99

// Trajectory digests of one day at kGateSeed. TARO runs no GEMM, so one
// pin covers both backends; it equals bench/city_scale's default-shape
// digest. The actor's actions depend on the GEMM backend in their last
// bits, which this shape's trajectory happens not to expose; both pins are
// kept so a backend-sensitive change shows.
constexpr std::uint64_t kPinTaro = 0x17341a6faf40eafdULL;
constexpr std::uint64_t kPinActorScalar = 0xfdadd1daaabb9014ULL;
constexpr std::uint64_t kPinActorAvx2 = 0xfdadd1daaabb9014ULL;

enum class Policy { Actor, Taro };

struct CitySpec {
  Policy policy = Policy::Taro;
  std::uint64_t seed = kGateSeed;
  ThreadPool* pool = nullptr;
  bool batched = true;
  bool decorated = false;
};

/// Same per-period digest as bench/city_common: performance sums, totals
/// and degraded-mode counters.
std::uint64_t period_digest(const core::PeriodResult& result) {
  std::uint64_t hash = fnv1a(result.performance_sums.data());
  hash = fnv1a(&result.system_performance, sizeof(double), hash);
  hash = fnv1a(result.slice_performance, hash);
  const std::uint64_t counters[] = {
      result.coordinator_converged ? 1u : 0u, result.crashed_ras,
      result.reports_fresh,                   result.reports_carried,
      result.columns_frozen,                  result.rcl_losses};
  return fnv1a(counters, sizeof(counters), hash);
}

std::vector<std::vector<double>> cell_day_profiles(const trace::CellProfile& cell) {
  const std::size_t bins = kDayPeriods * kIntervals;
  std::vector<std::vector<double>> per_slice(kSlices, std::vector<double>(bins, 0.0));
  for (std::size_t i = 0; i < kSlices; ++i) {
    const double shift_hours =
        24.0 * static_cast<double>(i) / (2.0 * static_cast<double>(kSlices));
    double max_activity = 0.0;
    for (std::size_t t = 0; t < bins; ++t) {
      const double hour = std::fmod(
          24.0 * (static_cast<double>(t) + 0.5) / static_cast<double>(bins) + shift_hours,
          24.0);
      per_slice[i][t] = trace::cell_activity(cell, hour);
      max_activity = std::max(max_activity, per_slice[i][t]);
    }
    if (max_activity <= 0.0) max_activity = 1.0;
    for (double& rate : per_slice[i]) rate = rate / max_activity * kPeakRate;
  }
  return per_slice;
}

class City {
 public:
  explicit City(const CitySpec& spec) {
    Rng profile_rng(spec.seed);
    const auto profiles = make_profiles(kSlices, profile_rng);
    const auto model = make_service_model(profiles);
    const std::shared_ptr<const env::PerformanceFunction> perf =
        env::make_queue_power_perf(2.0);

    env::RaEnvironmentConfig env_config;
    env_config.slices = kSlices;
    env_config.intervals_per_period = kIntervals;
    env_config.arrival_rate = kPeakRate;
    env_config.include_traffic_in_state = true;

    Rng city_rng(spec.seed + 9001);
    for (std::size_t j = 0; j < kRas; ++j) {
      std::shared_ptr<const env::ServiceModel> ra_model = model;
      std::shared_ptr<const env::PerformanceFunction> ra_perf = perf;
      if (spec.decorated) {
        models_.push_back(std::make_shared<TimedServiceModel>(model));
        perfs_.push_back(std::make_shared<TimedPerformance>(perf));
        ra_model = models_.back();
        ra_perf = perfs_.back();
      }
      environments_.push_back(std::make_unique<env::RaEnvironment>(
          env_config, profiles, ra_model, ra_perf, Rng(spec.seed * 1000 + j)));
      environments_.back()->set_arrival_profiles(
          cell_day_profiles(trace::sample_cell_profile(city_rng)));
    }

    if (spec.policy == Policy::Actor) {
      // An untrained actor of the deployed shape: inference cost does not
      // depend on the weights (as fig10_training's time_deployment).
      Rng actor_rng = Rng(spec.seed).spawn(99);
      actor_ = std::make_shared<rl::FrozenActor>(nn::Mlp(
          {environments_.front()->state_dim(), kHidden, kHidden,
           environments_.front()->action_dim()},
          nn::Activation::LeakyRelu, nn::Activation::Sigmoid, actor_rng));
    }
    for (std::size_t j = 0; j < kRas; ++j) {
      std::unique_ptr<core::RaPolicy> policy;
      if (spec.policy == Policy::Actor) {
        policy = std::make_unique<core::LearnedPolicy>(actor_, /*learn=*/false);
      } else {
        policy = std::make_unique<core::TaroPolicy>();
      }
      if (spec.decorated) {
        auto timed = std::make_unique<TimedPolicy>(std::move(policy));
        timed_policies_.push_back(timed.get());
        policy = std::move(timed);
      }
      policies_.push_back(std::move(policy));
    }

    core::CoordinatorConfig coordinator;
    coordinator.slices = kSlices;
    coordinator.ras = kRas;
    coordinator.u_min.assign(kSlices, -5.0 * static_cast<double>(kRas) *
                                          static_cast<double>(kIntervals));
    watchdog_.emplace(obs::SlaWatchdog::from_u_min(coordinator.u_min));

    core::SystemConfig config;
    config.pool = spec.pool;
    config.watchdog = &*watchdog_;
    config.batched_inference = spec.batched;
    std::vector<env::RaEnvironment*> env_ptrs;
    std::vector<core::RaPolicy*> policy_ptrs;
    for (auto& e : environments_) env_ptrs.push_back(e.get());
    for (auto& p : policies_) policy_ptrs.push_back(p.get());
    system_.emplace(env_ptrs, policy_ptrs, coordinator, config);
    system_->monitor().set_row_recording(false);
    system_->monitor().set_period_sum_retention(8);
  }

  /// Run one period and fold it into the running trajectory digest.
  void run_period() {
    for (TimedPolicy* p : timed_policies_) p->touched = false;
    system_->run_period_into(result_);
    // Chaining the period digests byte-wise equals bench/city_common's
    // FNV over the concatenated digest array.
    const std::uint64_t period = period_digest(result_);
    digest_ = fnv1a(&period, sizeof(period), digest_);
    crashed_ += result_.crashed_ras;
  }
  std::uint64_t digest() const { return digest_; }
  std::uint64_t crashed_ra_periods() const { return crashed_; }
  std::size_t arena_upstream() const {
    return system_->period_arena().stats().upstream_allocations;
  }

  /// Wall time of this period's RA phase, from the decorators' brackets:
  /// first decide_into entry to last feedback exit over all RAs.
  double ra_phase_seconds() const {
    bool any = false;
    Clock::time_point first{}, last{};
    for (const TimedPolicy* p : timed_policies_) {
      if (!p->touched) continue;
      if (!any || p->first_entry < first) first = p->first_entry;
      if (!any || p->last_exit > last) last = p->last_exit;
      any = true;
    }
    return any ? seconds_between(first, last) : 0.0;
  }
  Accum policy_decide() const {
    Accum a;
    for (const TimedPolicy* p : timed_policies_) {
      a.calls += p->decide_time.calls, a.seconds += p->decide_time.seconds;
    }
    return a;
  }
  Accum env_step() const {
    Accum a;
    for (const TimedPolicy* p : timed_policies_) {
      a.calls += p->step_time.calls, a.seconds += p->step_time.seconds;
    }
    return a;
  }
  Accum service_model() const {
    Accum a;
    for (const auto& m : models_) {
      const Accum e = m->accum.estimate();
      a.calls += e.calls, a.seconds += e.seconds;
    }
    return a;
  }
  Accum performance() const {
    Accum a;
    for (const auto& f : perfs_) {
      const Accum e = f->accum.estimate();
      a.calls += e.calls, a.seconds += e.seconds;
    }
    return a;
  }
  void reset_decorators() {
    for (TimedPolicy* p : timed_policies_) p->decide_time = p->step_time = Accum{};
    for (auto& m : models_) m->accum.reset();
    for (auto& f : perfs_) f->accum.reset();
  }

 private:
  std::vector<std::unique_ptr<env::RaEnvironment>> environments_;
  std::vector<std::shared_ptr<TimedServiceModel>> models_;
  std::vector<std::shared_ptr<TimedPerformance>> perfs_;
  std::shared_ptr<rl::FrozenActor> actor_;
  std::vector<std::unique_ptr<core::RaPolicy>> policies_;
  std::vector<TimedPolicy*> timed_policies_;
  std::optional<obs::SlaWatchdog> watchdog_;
  std::optional<core::EdgeSliceSystem> system_;
  core::PeriodResult result_;
  std::uint64_t digest_ = kFnvBasis;
  std::uint64_t crashed_ = 0;
};

/// Digest of the first day of a city.
std::uint64_t run_day(City& city) {
  for (std::size_t p = 0; p < kDayPeriods; ++p) city.run_period();
  return city.digest();
}

struct Leg {
  std::vector<double> period_seconds;
  std::vector<double> period_end;  // leg time at the end of each period
  double wall_seconds = 0.0;
  std::uint64_t ra_periods = 0;
  std::uint64_t crashed = 0;
  std::size_t arena_growth = 0;
  // Traced legs only: per-period RA-phase wall time (decorator brackets).
  double ra_phase_seconds = 0.0;
};

/// Periods per second over the whole leg: the machine's slow and fast
/// spells are averaged in proportion instead of one of them deciding.
double rate(const Leg& leg) {
  return static_cast<double>(leg.period_seconds.size()) / leg.wall_seconds;
}

/// Run periods for `seconds` of leg time (at least one). A given `setup`
/// runs kSetupBuilds times at even steps of the leg, off the leg's clock:
/// set-up samples then span the machine's slow and fast spells instead of
/// one moment of the run.
Leg measure(City& city, double seconds, bool traced,
            const std::function<void()>& setup = nullptr) {
  Leg leg;
  const std::size_t arena_before = city.arena_upstream();
  const std::uint64_t crashed_before = city.crashed_ra_periods();
  const auto start = Clock::now();
  double paused = 0.0;
  std::size_t setups = 0;
  const auto elapsed = [&] { return seconds_since(start) - paused; };
  do {
    if (setup && setups < kSetupBuilds &&
        elapsed() >= seconds * (static_cast<double>(setups) + 0.5) / kSetupBuilds) {
      const auto pause_start = Clock::now();
      setup();
      ++setups;
      paused += seconds_since(pause_start);
    }
    const auto period_start = Clock::now();
    city.run_period();
    leg.period_seconds.push_back(seconds_since(period_start));
    leg.period_end.push_back(elapsed());
    if (traced) leg.ra_phase_seconds += city.ra_phase_seconds();
  } while (elapsed() < seconds);
  leg.wall_seconds = elapsed();
  leg.ra_periods = leg.period_seconds.size() * kRas;
  leg.crashed = city.crashed_ra_periods() - crashed_before;
  leg.arena_growth = city.arena_upstream() - arena_before;
  return leg;
}

Result run_city(const Options& options, Policy policy) {
  Result result;
  const bool pooled = policy == Policy::Taro;
  std::optional<ThreadPool> pool;
  std::optional<KeepAwake> awake;
  if (pooled) {
    spawn_on_helper([&] { pool.emplace(kPoolThreads); });
    awake.emplace();
  }
  ThreadPool* const pool_ptr = pooled ? &*pool : nullptr;
  const bool avx2 = nn::active_gemm_backend() == nn::GemmBackend::Avx2;
  const std::uint64_t pin =
      policy == Policy::Taro ? kPinTaro : (avx2 ? kPinActorAvx2 : kPinActorScalar);

  // Gate: one day at the pinned seed, on the workload's own path.
  const CitySpec gate_spec{policy, kGateSeed, pool_ptr, true, false};
  {
    auto gate = std::make_unique<City>(gate_spec);
    const std::uint64_t digest = run_day(*gate);
    std::printf("# gate digest %s (pinned %s)\n", hex(digest).c_str(), hex(pin).c_str());
    result.check(digest == pinned(options, pin),
                 "gate trajectory digest " + hex(digest) + " != pinned " + hex(pin));
  }
  // Reference at the run's seed: one thread, per-RA decide() — 1-thread
  // TARO for the pooled workload, unbatched inference for the actor.
  std::uint64_t reference = 0;
  {
    City city({policy, options.seed, nullptr, /*batched=*/false, false});
    reference = run_day(city);
  }

  const CitySpec spec{policy, options.seed, pool_ptr, true, false};
  auto city = std::make_unique<City>(spec);
  // Warm-up day (untimed): caches, arena coalescing, batched-actor buffers.
  const std::uint64_t warm = run_day(*city);
  result.check(warm == reference,
               std::string("seeded digest ") + hex(warm) + " != reference " +
                   hex(reference) + (pooled ? " (1-thread TARO)" : " (unbatched)"));

  set_metrics_enabled(false);
  const double untraced_seconds = options.trace ? options.seconds / 2 : options.seconds;
  std::vector<double> setup_seconds;
  // A build takes 10-20 ms, by the host's spell, and fits one service
  // model per distinct slice profile, of which a seed draws 2 to 8: the
  // untraced leg builds the gate city kSetupBuilds times over its length,
  // and setup_s is the fastest of those builds, whatever the run's seed.
  const Leg leg = measure(*city, untraced_seconds, false, [&] {
    const auto start = Clock::now();
    const City built(gate_spec);
    setup_seconds.push_back(seconds_since(start));
  });
  result.check(leg.arena_growth == 0, "period arena grew after warm-up");
  result.attempted = leg.ra_periods;
  result.failed = leg.crashed;
  const double periods_per_s = rate(leg);
  std::printf("# periods %zu in %.3f s; seeded day digest %s\n", leg.period_seconds.size(),
              leg.wall_seconds, hex(warm).c_str());

  if (!options.trace) {
    result.add("setup_s", fastest(setup_seconds), "s");
    result.add("peak_rss_mb", peak_rss_mb(), "MB");
    result.add("ok_share",
               1.0 - static_cast<double>(leg.crashed) / static_cast<double>(leg.ra_periods),
               "ratio");
    result.add("throughput_per_s", periods_per_s, "1/s");
    result.add("latency_mean_ms", mean(leg.period_seconds) * 1e3, "ms");
    result.add("latency_p99_ms",
               windowed_p99(leg.period_seconds, leg.period_end, kWindowSeconds) * 1e3, "ms");
    return result;
  }

  // Traced leg: a decorated city on the same seed; decorators and spans
  // must not move the trajectory.
  auto traced = std::make_unique<City>(CitySpec{policy, options.seed, pool_ptr, true, true});
  const std::uint64_t traced_warm = run_day(*traced);
  result.check(traced_warm == reference, "decorated digest " + hex(traced_warm) +
                                             " != reference " + hex(reference));
  traced->reset_decorators();
  global_tracer().set_period_retention(std::size_t{1} << 22);
  set_metrics_enabled(true);
  const Leg t = measure(*traced, options.seconds / 2, true);
  set_metrics_enabled(false);
  result.check(t.arena_growth == 0, "period arena grew after warm-up (traced)");

  const double n = static_cast<double>(t.period_seconds.size());
  const auto per_period_us = [&](double seconds) { return seconds / n * 1e6; };
  double period_total = 0.0;
  for (double s : t.period_seconds) period_total += s;
  const SpanSum ra = span_sum("system.ra_intervals");
  const SpanSum batched = span_sum("system.batched_inference");
  const SpanSum coordinate = span_sum("coordinate");
  const SpanSum solve = span_sum("coordinator.solve");
  const SpanSum queue_wait = span_sum("system.pool_queue_wait");
  // The RA phase blocks the period: on the sequential path it is the sum
  // of the per-RA spans (one thread); on the pool it is the wall-clock
  // bracket of all RAs' activity, while the spans sum busy time over threads.
  const double ra_loop = pooled ? t.ra_phase_seconds : ra.seconds;
  const double residual = period_total - ra_loop - batched.seconds - coordinate.seconds;
  result.check(residual >= 0.0, "negative unattributed period time");
  const Accum decide = traced->policy_decide();
  const Accum step = traced->env_step();
  const Accum model = traced->service_model();
  const Accum perf = traced->performance();

  std::printf("# traced periods %zu in %.3f s\n", t.period_seconds.size(), t.wall_seconds);
  result.add("trace_overhead", periods_per_s / rate(t) - 1.0, "ratio");
  result.add("core.period_us", per_period_us(period_total), "us");
  result.add("core.ra_loop_us", per_period_us(ra_loop), "us");
  result.add("core.ra_busy_us", per_period_us(ra.seconds), "us");
  result.add("core.policy_decide_us", per_period_us(decide.seconds), "us");
  result.add("core.policy_decide_calls", static_cast<double>(decide.calls) / n, "count");
  result.add("rl.batched_infer_us", per_period_us(batched.seconds), "us");
  result.add("env.step_us", per_period_us(step.seconds), "us");
  result.add("env.step_calls", static_cast<double>(step.calls) / n, "count");
  result.add("env.service_model_us", per_period_us(model.seconds), "us");
  result.add("env.service_model_calls", static_cast<double>(model.calls) / n, "count");
  result.add("env.perf_fn_us", per_period_us(perf.seconds), "us");
  result.add("env.perf_fn_calls", static_cast<double>(perf.calls) / n, "count");
  result.add("core.coordinate_us", per_period_us(coordinate.seconds), "us");
  result.add("core.coordinator_solve_us", per_period_us(solve.seconds), "us");
  result.add("core.coordinator_solve_p99_us",
             quantile(span_period_totals("coordinator.solve"), 0.99) * 1e6, "us");
  // Mean over RA tasks of dispatch-to-start time (not a period share: the
  // waits of tasks queued behind each other overlap).
  result.add("common.pool_queue_wait_us",
             queue_wait.count ? queue_wait.seconds / static_cast<double>(queue_wait.count) * 1e6
                              : 0.0,
             "us");
  result.add("core.unattributed_us", per_period_us(residual), "us");
  result.add("common.arena_upstream_allocs", static_cast<double>(t.arena_growth), "count");
  return result;
}

}  // namespace

Result run_city_actor(const Options& options) { return run_city(options, Policy::Actor); }
Result run_city_taro_pool(const Options& options) { return run_city(options, Policy::Taro); }

}  // namespace perfbench
