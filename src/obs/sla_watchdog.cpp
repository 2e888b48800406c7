#include "obs/sla_watchdog.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/metrics.h"
#include "obs/event_log.h"

namespace edgeslice::obs {

SlaWatchdog::SlaWatchdog(std::vector<SloSpec> specs, SlaWatchdogConfig config)
    : specs_(std::move(specs)), config_(config) {
  if (specs_.empty()) throw std::invalid_argument("SlaWatchdog: no slices");
  if (!(config_.anomaly_alpha > 0.0) || config_.anomaly_alpha > 1.0)
    throw std::invalid_argument("SlaWatchdog: anomaly_alpha must be in (0, 1]");
  violations_.assign(specs_.size(), 0);
  anomaly_.assign(specs_.size(), 0.0);
}

SlaWatchdog SlaWatchdog::from_u_min(const std::vector<double>& u_min,
                                    SlaWatchdogConfig config) {
  std::vector<SloSpec> specs;
  specs.reserve(u_min.size());
  for (double u : u_min) specs.push_back(SloSpec{u, ""});
  return SlaWatchdog(std::move(specs), config);
}

std::string SlaWatchdog::metric_suffix(std::size_t slice) const {
  return specs_[slice].name.empty() ? "slice" + std::to_string(slice)
                                    : specs_[slice].name;
}

void SlaWatchdog::evaluate(std::size_t period,
                           const std::vector<double>& slice_performance,
                           const std::vector<std::size_t>& worst_ra) {
  if (slice_performance.size() != specs_.size())
    throw std::invalid_argument("SlaWatchdog: slice count mismatch");
  if (!worst_ra.empty() && worst_ra.size() != specs_.size())
    throw std::invalid_argument("SlaWatchdog: worst_ra count mismatch");
  ++periods_evaluated_;
  auto& metrics = global_metrics();
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    const double u = slice_performance[i];
    const double u_min = specs_[i].u_min;
    // Same tolerance the coordinator's sla_satisfied() uses.
    const bool violated = u < u_min - 1e-9;
    const double shortfall = std::max(0.0, u_min - u);
    const double normalized = shortfall / std::max(1.0, std::abs(u_min));
    anomaly_[i] += config_.anomaly_alpha * (normalized - anomaly_[i]);
    const std::string suffix = metric_suffix(i);
    if (violated) {
      ++violations_[i];
      metrics.counter("sla.violations").add();
      metrics.counter("sla.violations." + suffix).add();
      Event event;
      event.kind = EventKind::SlaViolation;
      event.period = period;
      event.slice = i;
      if (!worst_ra.empty()) event.ra = worst_ra[i];
      event.value = shortfall;
      global_event_log().record(event);
    }
    metrics.gauge("sla.violation_rate." + suffix).set(violation_rate(i));
    metrics.gauge("sla.anomaly." + suffix).set(anomaly_[i]);
    metrics.gauge("sla.margin." + suffix).set(u - u_min);
  }
}

std::size_t SlaWatchdog::total_violations() const {
  std::size_t total = 0;
  for (std::size_t v : violations_) total += v;
  return total;
}

double SlaWatchdog::violation_rate(std::size_t slice) const {
  if (periods_evaluated_ == 0) return 0.0;
  return static_cast<double>(violations_[slice]) /
         static_cast<double>(periods_evaluated_);
}

}  // namespace edgeslice::obs
