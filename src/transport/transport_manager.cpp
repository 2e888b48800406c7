#include "transport/transport_manager.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "common/metrics.h"

namespace edgeslice::transport {

namespace {

std::vector<OpenFlowSwitch*> raw_path(
    const std::vector<std::unique_ptr<OpenFlowSwitch>>& switches) {
  std::vector<OpenFlowSwitch*> path;
  path.reserve(switches.size());
  for (const auto& sw : switches) path.push_back(sw.get());
  return path;
}

std::vector<std::unique_ptr<OpenFlowSwitch>> make_switches(std::size_t n) {
  std::vector<std::unique_ptr<OpenFlowSwitch>> switches;
  switches.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    switches.push_back(std::make_unique<OpenFlowSwitch>("of:" + std::to_string(i + 1)));
  }
  return switches;
}

}  // namespace

TransportManager::TransportManager(const TransportManagerConfig& config)
    : config_(config),
      switches_(make_switches(config.switches)),
      controller_(raw_path(switches_), config.controller),
      shares_(config.slices, 0.0),
      endpoints_(config.slices),
      pending_outage_s_(config.slices, 0.0) {
  if (config.slices == 0) throw std::invalid_argument("TransportManager: zero slices");
  // Default endpoints: slice i's users are 10.0.<i>.0/24, server 192.168.0.<i>.
  for (std::size_t i = 0; i < config.slices; ++i) {
    endpoints_[i] = {"10.0." + std::to_string(i) + ".1",
                     "192.168.0." + std::to_string(i + 1)};
  }
}

void TransportManager::register_slice_endpoints(std::size_t slice, const std::string& src_ip,
                                                const std::string& dst_ip) {
  if (slice >= endpoints_.size()) throw std::out_of_range("TransportManager: bad slice");
  endpoints_[slice] = {src_ip, dst_ip};
}

ReconfigReport TransportManager::set_slice_share(std::size_t slice, double fraction) {
  if (slice >= shares_.size()) throw std::out_of_range("TransportManager: bad slice");
  if (fraction < 0.0 || fraction > 1.0)
    throw std::invalid_argument("TransportManager: share must be in [0,1]");
  shares_[slice] = fraction;
  SliceProgram program;
  program.slice = slice;
  program.src_ip = endpoints_[slice].first;
  program.dst_ip = endpoints_[slice].second;
  program.rate_mbps = fraction * config_.link_capacity_mbps;
  const ReconfigReport report = controller_.apply(program, config_.strategy);
  pending_outage_s_[slice] += report.outage_seconds;
  // Fraction of the RAN <-> edge link currently metered out to slices.
  global_metrics().gauge("transport.rate_utilization")
      .set(std::accumulate(shares_.begin(), shares_.end(), 0.0));
  global_metrics().counter("transport.reconfigurations").add();
  if (report.outage_seconds > 0.0) {
    global_metrics().histogram("transport.reconfig_outage_s").observe(report.outage_seconds);
  }
  return report;
}

double TransportManager::slice_rate_mbps(std::size_t slice) const {
  if (slice >= shares_.size()) throw std::out_of_range("TransportManager: bad slice");
  return shares_[slice] * config_.link_capacity_mbps;
}

double TransportManager::slice_capacity_bits(std::size_t slice, double seconds) {
  if (slice >= shares_.size()) throw std::out_of_range("TransportManager: bad slice");
  if (seconds < 0.0) throw std::invalid_argument("TransportManager: negative duration");
  const double outage = std::min(pending_outage_s_[slice], seconds);
  pending_outage_s_[slice] -= outage;
  const double effective_seconds = seconds - outage;
  return slice_rate_mbps(slice) * 1e6 * effective_seconds;
}

double TransportManager::offered_load_rate(std::size_t slice, double mbps) const {
  if (slice >= shares_.size()) throw std::out_of_range("TransportManager: bad slice");
  return controller_.end_to_end_rate(endpoints_[slice].first, endpoints_[slice].second, mbps);
}

}  // namespace edgeslice::transport
