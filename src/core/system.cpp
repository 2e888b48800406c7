#include "core/system.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "ckpt/container.h"
#include "common/binio.h"
#include "common/metrics.h"
#include "common/trace_span.h"
#include "obs/event_log.h"
#include "obs/sla_watchdog.h"
#include "rl/batched_actor.h"

namespace edgeslice::core {

namespace {

using SteadyClock = std::chrono::steady_clock;

double seconds_since(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

/// Flight-recorder entry for one fault applied to the substrate.
void log_fault_event(obs::EventKind kind, std::size_t period, std::size_t ra,
                     double value = 0.0) {
  obs::Event event;
  event.kind = kind;
  event.period = period;
  event.ra = ra;
  event.value = value;
  obs::global_event_log().record(event);
}

/// Column j of an I x J matrix into `out` (resized to I).
void column_into(const nn::Matrix& m, std::size_t j, std::vector<double>& out) {
  out.resize(m.rows());
  for (std::size_t i = 0; i < m.rows(); ++i) out[i] = m(i, j);
}

}  // namespace

EdgeSliceSystem::EdgeSliceSystem(std::vector<env::RaEnvironment*> environments,
                                 std::vector<RaPolicy*> policies,
                                 const CoordinatorConfig& coordinator_config,
                                 SystemConfig config)
    : environments_(std::move(environments)),
      policies_(std::move(policies)),
      coordinator_(coordinator_config),
      config_(config),
      bus_(config.faults) {
  if (environments_.empty() || environments_.size() != policies_.size())
    throw std::invalid_argument("EdgeSliceSystem: environments/policies mismatch");
  if (environments_.size() != coordinator_config.ras)
    throw std::invalid_argument("EdgeSliceSystem: RA count mismatch with coordinator");
  for (std::size_t j = 0; j < environments_.size(); ++j) {
    if (environments_[j] == nullptr || policies_[j] == nullptr)
      throw std::invalid_argument("EdgeSliceSystem: null environment or policy");
    if (environments_[j]->slice_count() != coordinator_config.slices)
      throw std::invalid_argument("EdgeSliceSystem: slice count mismatch");
  }
  if (config_.transport != nullptr &&
      config_.transport->ra_count() != environments_.size())
    throw std::invalid_argument("EdgeSliceSystem: transport RA count mismatch");
  bus_.set_transport(config_.transport);
  monitor_ = std::make_unique<SystemMonitor>(coordinator_config.slices,
                                             environments_.size());
  last_report_.assign(environments_.size(),
                      std::vector<double>(coordinator_config.slices, 0.0));
  last_report_period_.assign(environments_.size(), 0);
  has_report_.assign(environments_.size(), false);
}

PeriodResult EdgeSliceSystem::run_period() {
  PeriodResult result;
  run_period_into(result);
  return result;
}

void EdgeSliceSystem::run_period_into(PeriodResult& result) {
  const std::size_t slices = coordinator_.config().slices;
  const std::size_t ras = environments_.size();
  const std::size_t intervals = environments_.front()->config().intervals_per_period;
  const FaultInjector* faults = config_.faults;
  // Monitor rows are recorded per (t, j) only while the row log is on;
  // otherwise the monitor gets each RA's period sums once, below.
  const bool rows = monitor_->row_recording();

  global_tracer().set_period(period_);
  obs::global_event_log().set_period(period_);
  const auto period_span = global_tracer().span("system.period");
  period_arena_.reset();

  if (result.performance_sums.rows() != slices ||
      result.performance_sums.cols() != ras) {
    result.performance_sums = nn::Matrix(slices, ras);
  } else {
    auto& cells = result.performance_sums.data();
    std::fill(cells.begin(), cells.end(), 0.0);
  }
  result.system_performance = 0.0;
  result.slice_performance.assign(slices, 0.0);
  result.coordinator_converged = false;
  result.crashed_ras = 0;
  result.reports_fresh = 0;
  result.reports_carried = 0;
  result.columns_frozen = 0;
  result.rcl_losses = 0;

  // Which RAs are down this period, and how degraded the live substrates
  // are. Crashed RAs run no intervals: the agent is gone, so no actions
  // are taken, no traffic is served, and no monitoring rows are recorded.
  // With a transport, derates travel in the directives instead of being
  // applied to the (never-stepped) local environments, and process-real
  // fault actions ride along for the supervisor to execute.
  RaTransport* transport = config_.transport;
  std::vector<RaPeriodDirective> directives(transport != nullptr ? ras : 0);
  bool* const crashed = period_arena_.make_array<bool>(ras);
  if (faults) {
    for (std::size_t j = 0; j < ras; ++j) {
      crashed[j] = faults->ra_crashed(period_, j);
      if (transport != nullptr) {
        directives[j].run = !crashed[j];
        directives[j].fault = faults->process_fault(period_, j);
        directives[j].stall_ms =
            static_cast<std::uint32_t>(faults->process_fault_stall_ms(period_, j));
      }
      if (crashed[j]) {
        ++result.crashed_ras;
        log_fault_event(obs::EventKind::FaultRaCrash, period_, j);
        continue;
      }
      std::array<double, env::kResources> derate{1.0, 1.0, 1.0};
      if (faults->cqi_blackout(period_, j)) {
        derate[env::kRadio] = 0.0;
        log_fault_event(obs::EventKind::FaultCqiBlackout, period_, j);
      }
      if (faults->link_failure(period_, j)) {
        derate[env::kTransport] = 0.0;
        log_fault_event(obs::EventKind::FaultLinkFailure, period_, j);
      }
      const double slowdown = faults->compute_slowdown(period_, j);
      derate[env::kCompute] = 1.0 / slowdown;
      if (slowdown > 1.0) {
        log_fault_event(obs::EventKind::FaultComputeSlowdown, period_, j, slowdown);
      }
      if (transport != nullptr) {
        directives[j].has_derate = true;
        directives[j].derate = derate;
      } else {
        environments_[j]->set_resource_derate(derate);
      }
    }
  }

  ThreadPool* pool = config_.pool;
  if (transport != nullptr) {
    // Remote execution: one directive per RA out, one trace per RA back,
    // reduced in the same sequential (t, j) order as every other path.
    const auto intervals_span = global_tracer().span("system.transport_intervals");
    std::vector<RaPeriodTrace> traces = transport->run_intervals(period_, directives);
    if (traces.size() != ras)
      throw std::runtime_error("EdgeSliceSystem: transport trace count mismatch");
    for (std::size_t j = 0; j < ras; ++j) {
      // An RA the transport could not run (worker died or hung mid-period)
      // degrades exactly like a crash: no monitoring rows, no RC-M report;
      // carry-forward and column-freeze take over below.
      if (!crashed[j] && (!traces[j].ran || traces[j].steps.size() != intervals ||
                          traces[j].actions.size() != intervals)) {
        crashed[j] = true;
        ++result.crashed_ras;
        log_fault_event(obs::EventKind::FaultRaCrash, period_, j);
      }
    }
    for (std::size_t t = 0; t < intervals; ++t) {
      for (std::size_t j = 0; j < ras; ++j) {
        if (crashed[j]) continue;
        const env::StepResult& step = traces[j].steps[t];
        if (rows) monitor_->record(j, period_, interval_, step, traces[j].actions[t]);
        for (std::size_t i = 0; i < slices; ++i) {
          result.performance_sums(i, j) += step.performance[i];
          result.slice_performance[i] += step.performance[i];
          result.system_performance += step.performance[i];
        }
      }
      ++interval_;
    }
  } else if (pool != nullptr && pool->thread_count() > 1 && ras > 1) {
    // Decentralized execution: each RA's whole period runs on the worker
    // that owns it (its environment and policy are touched by no other
    // thread), with the per-interval results buffered per RA. The trace
    // buffers are members so their capacity survives across periods;
    // workers write disjoint per-RA slots.
    if (traces_.size() != ras) traces_.resize(ras);
    const bool timed = metrics_enabled();
    const auto dispatch_time = SteadyClock::now();
    pool->parallel_for(ras, [&](std::size_t j) {
      if (crashed[j]) return;
      // Time from batch dispatch to this RA's body starting: how long the
      // RA sat in the pool's queue behind other work.
      if (timed) {
        global_tracer().record("system.pool_queue_wait", seconds_since(dispatch_time));
      }
      const auto ra_start = SteadyClock::now();
      auto& environment = *environments_[j];
      auto& trace = traces_[j];
      trace.steps.resize(intervals);
      trace.actions.resize(intervals);
      for (std::size_t t = 0; t < intervals; ++t) {
        policies_[j]->decide_into(environment, trace.actions[t]);
        environment.step_into(trace.actions[t], trace.steps[t]);
        policies_[j]->feedback(trace.steps[t]);
      }
      if (timed) global_tracer().record("system.ra_intervals", seconds_since(ra_start));
    });
    // parallel_for is the barrier; reduce in the sequential (t, j) order
    // so monitoring rows and floating-point accumulation are bit-identical
    // to a sequential run regardless of worker interleaving.
    for (std::size_t t = 0; t < intervals; ++t) {
      for (std::size_t j = 0; j < ras; ++j) {
        if (crashed[j]) continue;
        const env::StepResult& step = traces_[j].steps[t];
        if (rows) monitor_->record(j, period_, interval_, step, traces_[j].actions[t]);
        for (std::size_t i = 0; i < slices; ++i) {
          result.performance_sums(i, j) += step.performance[i];
          result.slice_performance[i] += step.performance[i];
          result.system_performance += step.performance[i];
        }
      }
      ++interval_;
    }
  } else {
    // Sequential path: the (t, j) loops interleave RAs per interval, so
    // per-RA time is accumulated across intervals and recorded once per
    // RA — the same span granularity the parallel path reports.
    const bool timed = metrics_enabled();
    double* const ra_seconds = period_arena_.make_array<double>(ras);

    // Cross-agent batched inference: RAs whose policy's decide() is a
    // pure forward pass, grouped by the network they share (in deployment
    // that is one group holding every live RA). Their states are readable
    // up front each interval because an environment only advances when
    // its own RA steps, and per-row kernel determinism makes each batched
    // row bit-identical to the per-RA decide() it replaces. The group set
    // (keyed by network) and its buffers persist across periods; only the
    // membership is rebuilt, because crashes change it.
    constexpr std::size_t kUnbatched = static_cast<std::size_t>(-1);
    for (auto& group : groups_) group.members.clear();
    // Per RA: {group index, row within the group} or {kUnbatched, 0}.
    slot_.assign(ras, {kUnbatched, 0});
    if (config_.batched_inference) {
      for (std::size_t j = 0; j < ras; ++j) {
        if (crashed[j]) continue;
        const nn::Mlp* network = policies_[j]->inference_network();
        if (network == nullptr) continue;
        std::size_t g = 0;
        while (g < groups_.size() && &groups_[g].actor.network() != network) ++g;
        if (g == groups_.size()) groups_.push_back({rl::BatchedActor(*network), {}});
        slot_[j] = {g, groups_[g].members.size()};
        groups_[g].members.push_back(j);
      }
    }
    bool any_batched = false;

    double batch_seconds = 0.0;
    for (std::size_t t = 0; t < intervals; ++t) {
      const auto batch_start = timed ? SteadyClock::now() : SteadyClock::time_point{};
      for (auto& group : groups_) {
        if (group.members.empty()) continue;
        any_batched = true;
        group.actor.begin(group.members.size());
        for (std::size_t row = 0; row < group.members.size(); ++row) {
          environments_[group.members[row]]->state_into(state_scratch_);
          group.actor.set_state(row, state_scratch_);
        }
        group.actor.infer();
      }
      if (timed && !groups_.empty()) batch_seconds += seconds_since(batch_start);
      for (std::size_t j = 0; j < ras; ++j) {
        if (crashed[j]) continue;
        const auto ra_start = timed ? SteadyClock::now() : SteadyClock::time_point{};
        auto& environment = *environments_[j];
        if (slot_[j].first != kUnbatched) {
          groups_[slot_[j].first].actor.action_into(slot_[j].second, action_scratch_);
        } else {
          policies_[j]->decide_into(environment, action_scratch_);
        }
        environment.step_into(action_scratch_, step_scratch_);
        policies_[j]->feedback(step_scratch_);
        if (rows) monitor_->record(j, period_, interval_, step_scratch_, action_scratch_);
        for (std::size_t i = 0; i < slices; ++i) {
          result.performance_sums(i, j) += step_scratch_.performance[i];
          result.slice_performance[i] += step_scratch_.performance[i];
          result.system_performance += step_scratch_.performance[i];
        }
        if (timed) ra_seconds[j] += seconds_since(ra_start);
      }
      ++interval_;
    }
    if (timed) {
      for (std::size_t j = 0; j < ras; ++j) {
        if (!crashed[j]) global_tracer().record("system.ra_intervals", ra_seconds[j]);
      }
      if (any_batched) {
        global_tracer().record("system.batched_inference", batch_seconds);
      }
    }
  }

  // Every branch above reduced in the sequential (t, j) order, so column j
  // of performance_sums is the same adds, in the same order, from the same
  // 0.0 as the monitor's running sums built by record() of each interval.
  // With the row log off the monitor takes that column once per live RA.
  if (!rows) {
    for (std::size_t j = 0; j < ras; ++j) {
      if (crashed[j]) continue;
      column_into(result.performance_sums, j, report_scratch_.performance_sums);
      monitor_->add_period_sums(j, period_, report_scratch_.performance_sums);
    }
  }

  if (config_.use_coordinator) {
    const auto coordinate_span = global_tracer().span("coordinate");
    // Live RAs post their RC-M reports onto the message plane; the bus may
    // drop or delay them per the fault plan. One reused message feeds the
    // bus's pooled envelopes — the report plane allocates nothing once warm.
    for (std::size_t j = 0; j < ras; ++j) {
      if (crashed[j]) continue;
      report_scratch_.ra = j;
      column_into(result.performance_sums, j, report_scratch_.performance_sums);
      bus_.post_report(period_, report_scratch_);
    }

    // Ingest everything deliverable this period. Envelopes arrive ordered
    // by (deliver_period, seq), so a delayed stale report never overwrites
    // a fresher one delivered alongside it; the explicit sent_period guard
    // covers reordering across collect calls.
    bus_.collect_reports_into(period_, envelope_scratch_);
    for (auto& envelope : envelope_scratch_) {
      const std::size_t ra = envelope.message.ra;
      if (ra >= ras || envelope.message.performance_sums.size() != slices) continue;
      if (has_report_[ra] && envelope.sent_period < last_report_period_[ra]) continue;
      // Copy, not move: the envelope keeps its buffer for the bus's pool.
      last_report_[ra] = envelope.message.performance_sums;
      last_report_period_[ra] = envelope.sent_period;
      has_report_[ra] = true;
      if (envelope.sent_period == period_) ++result.reports_fresh;
    }
    bus_.recycle(envelope_scratch_);

    // Assemble the coordinator's input: fresh columns, carried-forward
    // columns within the staleness window, frozen columns beyond it.
    if (u_scratch_.rows() != slices || u_scratch_.cols() != ras) {
      u_scratch_ = nn::Matrix(slices, ras);
    } else {
      auto& cells = u_scratch_.data();
      std::fill(cells.begin(), cells.end(), 0.0);
    }
    nn::Matrix& u = u_scratch_;
    active_scratch_.assign(ras, false);
    std::vector<bool>& active = active_scratch_;
    for (std::size_t j = 0; j < ras; ++j) {
      if (!has_report_[j]) {
        ++result.columns_frozen;
        continue;
      }
      const std::size_t staleness = period_ - last_report_period_[j];
      if (staleness > config_.max_report_staleness) {
        ++result.columns_frozen;
        continue;
      }
      active[j] = true;
      for (std::size_t i = 0; i < slices; ++i) u(i, j) = last_report_[j][i];
      if (staleness > 0) ++result.reports_carried;
    }
    coordinator_.update(u, active);

    // RC-L push through the bus; an RA that misses it keeps acting on its
    // last-known coordination vector, and a crashed RA receives nothing
    // (it picks up the current vector after its first post-restart period).
    // With a transport the bus ships the vector to the RA's worker itself;
    // in-process the delivery is this set_coordination call.
    for (std::size_t j = 0; j < ras; ++j) {
      if (crashed[j]) continue;
      coordinator_.coordination_for_into(j, rcl_scratch_);
      if (bus_.deliver_coordination(period_, rcl_scratch_)) {
        if (transport == nullptr) environments_[j]->set_coordination(rcl_scratch_.z_minus_y);
      } else {
        ++result.rcl_losses;
      }
    }
    result.coordinator_converged = coordinator_.converged();
  }
  if (transport != nullptr) transport->end_period(period_);
  // Degraded-mode signals of the period just run, readable while the
  // system is live (the chaos benches and operators poll these).
  auto& metrics = global_metrics();
  metrics.gauge("system.crashed_ras").set(static_cast<double>(result.crashed_ras));
  metrics.gauge("system.columns_frozen").set(static_cast<double>(result.columns_frozen));
  metrics.gauge("system.reports_carried").set(static_cast<double>(result.reports_carried));
  metrics.counter("system.rcl_losses").add(result.rcl_losses);
  metrics.counter("system.periods").add();
  // SLO evaluation against the period's per-(ra, slice) sums — the values
  // the monitor's report() holds for this period — summed network-wide.
  // Observation-only — the watchdog's verdicts never steer orchestration.
  if (config_.watchdog != nullptr) {
    slice_sums_scratch_.assign(slices, 0.0);
    // Attribution: per slice, the non-crashed RA contributing least this
    // period — the first place to look when the slice breaches its SLO.
    slice_min_scratch_.assign(slices, 0.0);
    slice_worst_ra_scratch_.assign(slices, obs::Event::kNone);
    for (std::size_t j = 0; j < ras; ++j) {
      if (crashed[j]) continue;
      for (std::size_t i = 0; i < slices; ++i) {
        const double contribution = result.performance_sums(i, j);
        slice_sums_scratch_[i] += contribution;
        if (slice_worst_ra_scratch_[i] == obs::Event::kNone ||
            contribution < slice_min_scratch_[i]) {
          slice_min_scratch_[i] = contribution;
          slice_worst_ra_scratch_[i] = j;
        }
      }
    }
    config_.watchdog->evaluate(period_, slice_sums_scratch_, slice_worst_ra_scratch_);
  }
  ++period_;
}

std::vector<PeriodResult> EdgeSliceSystem::run(std::size_t periods) {
  std::vector<PeriodResult> results;
  results.reserve(periods);
  for (std::size_t p = 0; p < periods; ++p) results.push_back(run_period());
  return results;
}

namespace {

/// Canonical double rendering for fingerprints: shortest exact form.
std::string canonical(double v) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

}  // namespace

std::string EdgeSliceSystem::config_fingerprint() const {
  const CoordinatorConfig& c = coordinator_.config();
  std::ostringstream out;
  out << "artifact = system\n";
  out << "slices = " << c.slices << "\n";
  out << "ras = " << environments_.size() << "\n";
  out << "intervals_per_period = "
      << environments_.front()->config().intervals_per_period << "\n";
  out << "use_coordinator = " << (config_.use_coordinator ? 1 : 0) << "\n";
  out << "max_report_staleness = " << config_.max_report_staleness << "\n";
  out << "rho = " << canonical(c.rho) << "\n";
  out << "u_min =";
  for (double u : c.u_min) out << " " << canonical(u);
  out << "\n";
  out << "admm.abs_tol = " << canonical(c.stopping.absolute_tolerance) << "\n";
  out << "admm.rel_tol = " << canonical(c.stopping.relative_tolerance) << "\n";
  out << "admm.min_iterations = " << c.stopping.min_iterations << "\n";
  out << "admm.max_iterations = " << c.stopping.max_iterations << "\n";
  return out.str();
}

bool EdgeSliceSystem::save_checkpoint(const std::string& path) const {
  ckpt::CheckpointWriter writer(config_fingerprint());

  std::ostringstream loop;
  write_u64(loop, period_);
  write_u64(loop, interval_);
  for (std::size_t j = 0; j < environments_.size(); ++j) {
    write_u8(loop, has_report_[j] ? 1 : 0);
    write_u64(loop, last_report_period_[j]);
    write_f64_vector(loop, last_report_[j]);
  }
  writer.add_section(ckpt::SectionKind::SystemLoop, 0, loop.str());

  std::ostringstream coordinator;
  coordinator_.save_state(coordinator);
  writer.add_section(ckpt::SectionKind::Coordinator, 0, coordinator.str());

  std::ostringstream bus;
  bus_.save_state(bus);
  writer.add_section(ckpt::SectionKind::MessageBus, 0, bus.str());

  // Environment sections come from wherever the environments actually
  // live. Transport snapshots are requested after the period's
  // coordination frames (socket ordering guarantees the worker applied
  // them first), so the blobs are byte-identical to an in-process
  // save_state at the same boundary.
  for (std::size_t j = 0; j < environments_.size(); ++j) {
    std::string blob;
    if (config_.transport != nullptr) {
      blob = config_.transport->environment_state(j);
    } else {
      std::ostringstream environment;
      environments_[j]->save_state(environment);
      blob = environment.str();
    }
    writer.add_section(ckpt::SectionKind::Environment,
                       static_cast<std::uint32_t>(j), std::move(blob));
  }
  return writer.write_file(path);
}

void EdgeSliceSystem::load_checkpoint(const std::string& path) {
  constexpr const char* kContext = "EdgeSliceSystem::load_checkpoint";
  const ckpt::CheckpointReader reader = ckpt::CheckpointReader::from_file(path);
  if (reader.fingerprint() != config_fingerprint()) {
    throw std::runtime_error(std::string(kContext) +
                             ": checkpoint was taken under a different system "
                             "configuration (fingerprint mismatch)");
  }
  const std::size_t slices = coordinator_.config().slices;

  // Decode the loop section into temporaries before touching anything, so
  // a corrupt checkpoint leaves the system unchanged. The component
  // load_state calls below share that contract individually; they run
  // after all payloads are known present (require() throws first).
  std::istringstream loop(reader.require(ckpt::SectionKind::SystemLoop));
  const std::uint64_t period = read_u64(loop, kContext);
  const std::uint64_t interval = read_u64(loop, kContext);
  std::vector<std::vector<double>> last_report(environments_.size());
  std::vector<std::size_t> last_report_period(environments_.size(), 0);
  std::vector<bool> has_report(environments_.size(), false);
  for (std::size_t j = 0; j < environments_.size(); ++j) {
    has_report[j] = read_u8(loop, kContext) != 0;
    last_report_period[j] = static_cast<std::size_t>(read_u64(loop, kContext));
    last_report[j] = read_f64_vector(loop, kContext);
    if (last_report[j].size() != slices) {
      throw std::runtime_error(std::string(kContext) +
                               ": carried report size mismatch (RA " +
                               std::to_string(j) + ")");
    }
  }

  std::istringstream coordinator(reader.require(ckpt::SectionKind::Coordinator));
  std::istringstream bus(reader.require(ckpt::SectionKind::MessageBus));
  std::vector<std::string> environment_blobs;
  environment_blobs.reserve(environments_.size());
  for (std::size_t j = 0; j < environments_.size(); ++j) {
    environment_blobs.push_back(reader.require(
        ckpt::SectionKind::Environment, static_cast<std::uint32_t>(j)));
  }

  coordinator_.load_state(coordinator);
  bus_.load_state(bus);
  // Always validate the blobs into the local environments first (a corrupt
  // section throws before any remote state is touched); with a transport,
  // the blobs are then pushed to the workers, which are the authoritative
  // copies.
  for (std::size_t j = 0; j < environments_.size(); ++j) {
    std::istringstream blob(environment_blobs[j]);
    environments_[j]->load_state(blob);
  }
  if (config_.transport != nullptr) {
    for (std::size_t j = 0; j < environments_.size(); ++j) {
      config_.transport->restore_environment(j, environment_blobs[j]);
    }
  }
  period_ = static_cast<std::size_t>(period);
  interval_ = static_cast<std::size_t>(interval);
  last_report_ = std::move(last_report);
  last_report_period_ = std::move(last_report_period);
  has_report_ = std::move(has_report);
}

}  // namespace edgeslice::core
