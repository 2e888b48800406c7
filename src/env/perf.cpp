#include "env/perf.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace edgeslice::env {

QueuePowerPerf::QueuePowerPerf(double alpha) : alpha_(alpha) {
  if (alpha <= 0.0) throw std::invalid_argument("QueuePowerPerf: alpha must be > 0");
}

double QueuePowerPerf::evaluate(const PerfObservation& observation) const {
  const double q = std::max(0.0, observation.queue_length);
  // For an integer q below 2^26, q * q is exact (below 2^52), and pow's
  // error is under 1 ulp, so pow(q, 2) returns exactly q * q (checked for
  // every q in [0, 2^20] in tests/env/test_perf.cpp). Skip the call there.
  if (alpha_ == 2.0 && q < 0x1p26 &&
      static_cast<double>(static_cast<std::int64_t>(q)) == q) {
    return -(q * q);
  }
  return -std::pow(q, alpha_);
}

std::string QueuePowerPerf::name() const {
  return "queue-power(alpha=" + std::to_string(alpha_) + ")";
}

NegServiceTimePerf::NegServiceTimePerf(double cap_seconds) : cap_seconds_(cap_seconds) {
  if (cap_seconds <= 0.0) throw std::invalid_argument("NegServiceTimePerf: bad cap");
}

double NegServiceTimePerf::evaluate(const PerfObservation& observation) const {
  return -std::min(observation.service_time, cap_seconds_);
}

std::unique_ptr<PerformanceFunction> make_queue_power_perf(double alpha) {
  return std::make_unique<QueuePowerPerf>(alpha);
}

std::unique_ptr<PerformanceFunction> make_neg_service_time_perf() {
  return std::make_unique<NegServiceTimePerf>();
}

}  // namespace edgeslice::env
