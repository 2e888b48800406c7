// SLA watchdog: first-class tracking of per-slice SLO compliance.
//
// The paper's slicing contract (Eq. 2) is a floor on network-wide
// per-slice performance per period: sum_j sum_t U_{i,j,t} >= U_i^min.
// The coordinator *enforces* that constraint through the ADMM projection;
// nothing in the seed repo *observed* whether the realized performance
// actually met it. The watchdog closes that gap: fed once per period with
// the per-slice performance sums of the period (the values the
// SystemMonitor's report(ra, period) holds, summed over RAs), it keeps
// per-slice violation counters, a violation-rate gauge, and an EWMA
// anomaly score, publishes them to the metrics registry, and emits an
// `sla.violation` flight-recorder event per violating (period, slice).
//
// Observation-only: the watchdog never feeds back into orchestration, so
// results are bit-identical with or without it attached.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace edgeslice::obs {

/// The contract of one slice. `u_min` follows the coordinator's per-slice
/// SLA (Eq. 2): minimum network-wide performance sum per period. Our
/// performance functions fold throughput/latency into U (DESIGN.md Sec.
/// 2), so a throughput floor or latency ceiling both surface as a U floor.
struct SloSpec {
  double u_min = -50.0;  // paper default (Sec. VII)
  std::string name;      // optional label for exported metric names
};

struct SlaWatchdogConfig {
  /// Smoothing factor of the per-slice EWMA anomaly score in (0, 1].
  double anomaly_alpha = 0.2;
};

class SlaWatchdog {
 public:
  explicit SlaWatchdog(std::vector<SloSpec> specs, SlaWatchdogConfig config = {});

  /// Convenience: one spec per slice from the coordinator's u_min vector.
  static SlaWatchdog from_u_min(const std::vector<double>& u_min,
                                SlaWatchdogConfig config = {});

  /// Evaluate one finished period. `slice_performance[i]` is the
  /// network-wide performance sum of slice i over the period (what
  /// SystemMonitor::report provides per RA, summed over RAs). Updates
  /// counters/gauges/anomaly scores and emits sla.violation events.
  /// `worst_ra[i]` is the RA contributing least to slice i this period
  /// (the first place to look, stamped into the violation event's `ra`
  /// field). Empty worst_ra means unknown (events carry ra = kNone,
  /// exported as null).
  void evaluate(std::size_t period, const std::vector<double>& slice_performance,
                const std::vector<std::size_t>& worst_ra);

  std::size_t slice_count() const { return specs_.size(); }
  const SloSpec& spec(std::size_t slice) const { return specs_[slice]; }

  std::size_t periods_evaluated() const { return periods_evaluated_; }
  std::size_t violations(std::size_t slice) const { return violations_[slice]; }
  std::size_t total_violations() const;
  /// Fraction of evaluated periods in which `slice` violated its SLO.
  double violation_rate(std::size_t slice) const;
  /// EWMA of the normalized shortfall max(0, u_min - u) / max(1, |u_min|):
  /// 0 while healthy, rises toward the (normalized) violation depth under
  /// sustained breach, decays geometrically after recovery.
  double anomaly_score(std::size_t slice) const { return anomaly_[slice]; }

 private:
  std::string metric_suffix(std::size_t slice) const;

  std::vector<SloSpec> specs_;
  SlaWatchdogConfig config_;
  std::size_t periods_evaluated_ = 0;
  std::vector<std::size_t> violations_;
  std::vector<double> anomaly_;
};

}  // namespace edgeslice::obs
