// Transport resource manager — the VR-T middleware of Sec. V-B.
//
// Maps the orchestration agent's virtual-resource fractions onto per-slice
// meter rates on the RAN <-> edge-server link (prototype: 80 Mbps total)
// and programs the switch path through the SDN controller using the
// hitless parallel-configuration strategy. User/slice association in the
// transport network is by source/destination IP address.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "transport/controller.h"
#include "transport/switch.h"

namespace edgeslice::transport {

struct TransportManagerConfig {
  double link_capacity_mbps = 80.0;  // prototype: 80 Mbps eNB <-> edge server
  std::size_t slices = 2;
  std::size_t switches = 6;          // prototype: 6 OpenFlow switches
  ReconfigStrategy strategy = ReconfigStrategy::ParallelHitless;
  ControllerConfig controller;
};

class TransportManager {
 public:
  explicit TransportManager(const TransportManagerConfig& config);

  /// --- VR-T interface -----------------------------------------------------
  /// Set slice i's share of the link (fraction in [0,1]); reprograms the
  /// whole switch path.
  ReconfigReport set_slice_share(std::size_t slice, double fraction);
  double slice_rate_mbps(std::size_t slice) const;

  /// Register the IP endpoints identifying a slice's traffic.
  void register_slice_endpoints(std::size_t slice, const std::string& src_ip,
                                const std::string& dst_ip);

  /// --- Data path ------------------------------------------------------------
  /// Bits deliverable for a slice over `seconds`, given its meter rate and
  /// any naive-reconfiguration outage incurred since the last call.
  double slice_capacity_bits(std::size_t slice, double seconds);

  /// End-to-end forwarded rate for an offered load (diagnostics).
  double offered_load_rate(std::size_t slice, double mbps) const;

  double total_outage_seconds() const { return controller_.total_outage_seconds(); }
  std::size_t slice_count() const { return shares_.size(); }
  const SdnController& controller() const { return controller_; }

 private:
  TransportManagerConfig config_;
  std::vector<std::unique_ptr<OpenFlowSwitch>> switches_;
  SdnController controller_;
  std::vector<double> shares_;
  std::vector<std::pair<std::string, std::string>> endpoints_;
  std::vector<double> pending_outage_s_;  // consumed by slice_capacity_bits
};

}  // namespace edgeslice::transport
