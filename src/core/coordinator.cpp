#include "core/coordinator.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/binio.h"
#include "common/metrics.h"
#include "common/trace_span.h"
#include "obs/event_log.h"
#include "opt/projection.h"

namespace edgeslice::core {

namespace {

/// Count the rejection under "coordinator.reject.<cause>", log it to the
/// flight recorder, and throw. The counters answer "why is the
/// coordinator ignoring updates" without a debugger attached — exactly
/// the signal a chaos run needs.
[[noreturn]] void reject(const char* cause, obs::RejectCause code,
                         const std::string& what) {
  global_metrics().counter(std::string("coordinator.reject.") + cause).add();
  obs::Event event;
  event.kind = obs::EventKind::CoordinatorReject;
  event.value = static_cast<double>(code);
  obs::global_event_log().record(event);
  throw std::invalid_argument(what);
}

}  // namespace

PerformanceCoordinator::PerformanceCoordinator(const CoordinatorConfig& config)
    : config_(config), monitor_(config.stopping) {
  if (config.slices == 0 || config.ras == 0)
    throw std::invalid_argument("PerformanceCoordinator: empty system");
  if (config_.u_min.empty()) {
    config_.u_min.assign(config_.slices, -50.0);  // paper default (Sec. VII)
  }
  if (config_.u_min.size() != config_.slices)
    throw std::invalid_argument("PerformanceCoordinator: u_min size mismatch");
  z_.assign(config_.slices * config_.ras, 0.0);
  y_.assign(config_.slices * config_.ras, 0.0);
}

std::size_t PerformanceCoordinator::index(std::size_t slice, std::size_t ra) const {
  if (slice >= config_.slices || ra >= config_.ras)
    throw std::out_of_range("PerformanceCoordinator: bad (slice, ra)");
  return slice * config_.ras + ra;
}

void PerformanceCoordinator::update(const nn::Matrix& performance_sums) {
  if (performance_sums.rows() != config_.slices ||
      performance_sums.cols() != config_.ras) {
    reject("shape", obs::RejectCause::Shape, "PerformanceCoordinator: U matrix shape mismatch");
  }
  for (double v : performance_sums.data()) {
    if (!std::isfinite(v))
      reject("nonfinite", obs::RejectCause::NonFinite, "PerformanceCoordinator: non-finite performance sum");
  }
  const auto solve_span = global_tracer().span("coordinator.solve");
  global_metrics().counter("coordinator.updates").add();
  scratch_z_old_ = z_;
  const std::vector<double>& z_old = scratch_z_old_;

  // z-update (Eq. 9 / P2): per slice, project (U_i + y_i) onto
  // { z : sum_j z_j >= U_i^min }.
  for (std::size_t i = 0; i < config_.slices; ++i) {
    scratch_c_.resize(config_.ras);
    for (std::size_t j = 0; j < config_.ras; ++j) {
      scratch_c_[j] = performance_sums(i, j) + y_[index(i, j)];
    }
    opt::project_halfspace_sum_ge_into(scratch_c_, config_.u_min[i], scratch_zi_);
    for (std::size_t j = 0; j < config_.ras; ++j) z_[index(i, j)] = scratch_zi_[j];
  }

  // y-update (Eq. 10): y <- y + (sum_t U - z).
  scratch_u_.resize(config_.slices * config_.ras);
  std::vector<double>& u_flat = scratch_u_;
  for (std::size_t i = 0; i < config_.slices; ++i) {
    for (std::size_t j = 0; j < config_.ras; ++j) {
      u_flat[index(i, j)] = performance_sums(i, j);
    }
  }
  opt::update_scaled_duals(y_, u_flat, z_);

  // Residual bookkeeping / convergence decision.
  opt::AdmmResiduals residuals;
  residuals.primal = opt::primal_residual_norm(u_flat, z_);
  residuals.dual = opt::dual_residual_norm(z_, z_old, config_.rho);
  double u_norm = 0.0;
  double z_norm = 0.0;
  double y_norm = 0.0;
  for (std::size_t k = 0; k < u_flat.size(); ++k) {
    u_norm += u_flat[k] * u_flat[k];
    z_norm += z_[k] * z_[k];
    y_norm += y_[k] * y_[k];
  }
  monitor_.record(residuals, std::sqrt(std::max(u_norm, z_norm)),
                  config_.rho * std::sqrt(y_norm), u_flat.size());
}

void PerformanceCoordinator::update(const nn::Matrix& performance_sums,
                                    const std::vector<bool>& active) {
  if (active.size() != config_.ras)
    reject("mask_size", obs::RejectCause::MaskSize, "PerformanceCoordinator: active mask size mismatch");
  const bool all_active = std::all_of(active.begin(), active.end(), [](bool a) { return a; });
  const std::size_t frozen =
      static_cast<std::size_t>(std::count(active.begin(), active.end(), false));
  global_metrics().gauge("coordinator.frozen_columns")
      .set(static_cast<double>(frozen));
  if (!all_active) {
    obs::Event event;
    event.kind = obs::EventKind::ColumnsFrozen;
    event.value = static_cast<double>(frozen);
    obs::global_event_log().record(event);
  }
  if (all_active) {
    update(performance_sums);
    return;
  }
  if (performance_sums.rows() != config_.slices ||
      performance_sums.cols() != config_.ras) {
    reject("shape", obs::RejectCause::Shape, "PerformanceCoordinator: U matrix shape mismatch");
  }
  for (std::size_t i = 0; i < config_.slices; ++i) {
    for (std::size_t j = 0; j < config_.ras; ++j) {
      if (active[j] && !std::isfinite(performance_sums(i, j)))
        reject("nonfinite", obs::RejectCause::NonFinite, "PerformanceCoordinator: non-finite performance sum");
    }
  }

  scratch_live_.clear();
  std::vector<std::size_t>& live = scratch_live_;
  for (std::size_t j = 0; j < config_.ras; ++j) {
    if (active[j]) live.push_back(j);
  }
  if (live.empty()) return;  // everything frozen: no information, no update

  const auto solve_span = global_tracer().span("coordinator.solve");
  global_metrics().counter("coordinator.updates").add();
  scratch_z_old_ = z_;
  const std::vector<double>& z_old = scratch_z_old_;

  // z-update restricted to live columns; the frozen columns contribute
  // their last z to the SLA budget, so the projection bound becomes
  // U_i^min - sum_{frozen j} z_{i,j}.
  for (std::size_t i = 0; i < config_.slices; ++i) {
    scratch_c_.resize(live.size());
    std::vector<double>& c = scratch_c_;
    double frozen_sum = 0.0;
    for (std::size_t j = 0; j < config_.ras; ++j) {
      if (!active[j]) frozen_sum += z_[index(i, j)];
    }
    for (std::size_t k = 0; k < live.size(); ++k) {
      c[k] = performance_sums(i, live[k]) + y_[index(i, live[k])];
    }
    opt::project_halfspace_sum_ge_into(c, config_.u_min[i] - frozen_sum, scratch_zi_);
    for (std::size_t k = 0; k < live.size(); ++k) z_[index(i, live[k])] = scratch_zi_[k];
  }

  // y-update on live columns only; frozen duals hold their value.
  scratch_u_.resize(config_.slices * live.size());
  scratch_z_live_.resize(config_.slices * live.size());
  scratch_z_old_live_.resize(config_.slices * live.size());
  scratch_y_live_.resize(config_.slices * live.size());
  std::vector<double>& u_live = scratch_u_;
  std::vector<double>& z_live = scratch_z_live_;
  std::vector<double>& z_old_live = scratch_z_old_live_;
  std::vector<double>& y_live = scratch_y_live_;
  for (std::size_t i = 0; i < config_.slices; ++i) {
    for (std::size_t k = 0; k < live.size(); ++k) {
      const std::size_t flat = i * live.size() + k;
      u_live[flat] = performance_sums(i, live[k]);
      z_live[flat] = z_[index(i, live[k])];
      z_old_live[flat] = z_old[index(i, live[k])];
      y_live[flat] = y_[index(i, live[k])];
    }
  }
  opt::update_scaled_duals(y_live, u_live, z_live);
  for (std::size_t i = 0; i < config_.slices; ++i) {
    for (std::size_t k = 0; k < live.size(); ++k) {
      y_[index(i, live[k])] = y_live[i * live.size() + k];
    }
  }

  opt::AdmmResiduals residuals;
  residuals.primal = opt::primal_residual_norm(u_live, z_live);
  residuals.dual = opt::dual_residual_norm(z_live, z_old_live, config_.rho);
  double u_norm = 0.0;
  double z_norm = 0.0;
  double y_norm = 0.0;
  for (std::size_t k = 0; k < u_live.size(); ++k) {
    u_norm += u_live[k] * u_live[k];
    z_norm += z_live[k] * z_live[k];
    y_norm += y_live[k] * y_live[k];
  }
  monitor_.record(residuals, std::sqrt(std::max(u_norm, z_norm)),
                  config_.rho * std::sqrt(y_norm), u_live.size());
}

void PerformanceCoordinator::coordination_for_into(std::size_t ra,
                                                   RcLearningMessage& msg) const {
  msg.ra = ra;
  msg.z_minus_y.resize(config_.slices);
  for (std::size_t i = 0; i < config_.slices; ++i) {
    msg.z_minus_y[i] = z_[index(i, ra)] - y_[index(i, ra)];
  }
}

double PerformanceCoordinator::z(std::size_t slice, std::size_t ra) const {
  return z_[index(slice, ra)];
}

double PerformanceCoordinator::y(std::size_t slice, std::size_t ra) const {
  return y_[index(slice, ra)];
}

bool PerformanceCoordinator::sla_satisfied(std::size_t slice) const {
  double total = 0.0;
  for (std::size_t j = 0; j < config_.ras; ++j) total += z_[index(slice, j)];
  return total >= config_.u_min[slice] - 1e-9;
}

void PerformanceCoordinator::save_state(std::ostream& out) const {
  write_u64(out, config_.slices);
  write_u64(out, config_.ras);
  write_f64_vector(out, z_);
  write_f64_vector(out, y_);
  write_u64(out, monitor_.iterations());
  write_u8(out, monitor_.converged() ? 1 : 0);
  write_u64(out, monitor_.history().size());
  for (const opt::AdmmResiduals& r : monitor_.history()) {
    write_f64(out, r.primal);
    write_f64(out, r.dual);
  }
}

void PerformanceCoordinator::load_state(std::istream& in) {
  constexpr const char* kContext = "PerformanceCoordinator::load_state";
  const auto fail = [&](const std::string& what) {
    throw std::runtime_error(std::string(kContext) + ": " + what);
  };
  if (read_u64(in, kContext) != config_.slices) fail("slice count mismatch");
  if (read_u64(in, kContext) != config_.ras) fail("RA count mismatch");
  std::vector<double> z = read_f64_vector(in, kContext);
  std::vector<double> y = read_f64_vector(in, kContext);
  if (z.size() != z_.size() || y.size() != y_.size()) fail("Z/Y size mismatch");
  for (double v : z) {
    if (!std::isfinite(v)) fail("non-finite Z entry");
  }
  for (double v : y) {
    if (!std::isfinite(v)) fail("non-finite Y entry");
  }
  const std::uint64_t iterations = read_u64(in, kContext);
  const bool converged = read_u8(in, kContext) != 0;
  const std::uint64_t history_size = read_u64(in, kContext);
  if (history_size > (1ull << 24)) fail("absurd residual history size");
  std::vector<opt::AdmmResiduals> history(static_cast<std::size_t>(history_size));
  for (auto& r : history) {
    r.primal = read_f64(in, kContext);
    r.dual = read_f64(in, kContext);
  }
  z_ = std::move(z);
  y_ = std::move(y);
  monitor_.restore(static_cast<std::size_t>(iterations), converged, std::move(history));
}

}  // namespace edgeslice::core
