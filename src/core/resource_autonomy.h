// A resource autonomy (RA): the set of network infrastructures managed by
// one orchestration agent (Sec. II) — an eNodeB, a transport path, and an
// edge server, each fronted by its resource manager middleware.
//
// ResourceAutonomy owns the three managers, translates an orchestration
// action into VR messages, and enforces it at runtime. The prototype
// defaults mirror Table II.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "compute/computing_manager.h"
#include "core/interfaces.h"
#include "env/service_model.h"
#include "radio/radio_manager.h"
#include "transport/transport_manager.h"

namespace edgeslice::core {

struct ResourceAutonomyConfig {
  std::size_t ra_id = 0;
  std::size_t slices = 2;
  radio::RadioManagerConfig radio;            // 5 MHz = 25 PRBs
  transport::TransportManagerConfig transport; // 80 Mbps, 6 switches
  compute::ComputingManagerConfig computing;   // 51200 CUDA threads
};

class ResourceAutonomy {
 public:
  ResourceAutonomy(const ResourceAutonomyConfig& config, Rng& rng);

  /// Enforce a slice-major orchestration action (fractions per resource).
  /// Over-subscribed resources are proportionally scaled, since the
  /// substrates cannot allocate more than 100%. Returns the VR messages
  /// dispatched to the managers.
  std::vector<VrMessage> apply(const std::vector<double>& action);

  /// Attach a user end to end: IMSI at the eNodeB, IP at the transport
  /// and computing managers.
  void attach_user(const std::string& imsi, const std::string& ip, std::size_t user_id,
                   std::size_t slice);

  /// Ground-truth capacity of this RA, measured through the managers.
  env::RaCapacity capacity();

  radio::RadioManager& radio() { return *radio_; }
  transport::TransportManager& transport() { return *transport_; }
  compute::ComputingManager& computing() { return *computing_; }
  std::size_t id() const { return config_.ra_id; }
  std::size_t slice_count() const { return config_.slices; }

 private:
  ResourceAutonomyConfig config_;
  std::unique_ptr<radio::RadioManager> radio_;
  std::unique_ptr<transport::TransportManager> transport_;
  std::unique_ptr<compute::ComputingManager> computing_;
};

/// Prototype RA configuration per Table II.
ResourceAutonomyConfig prototype_ra_config(std::size_t ra_id, std::size_t slices = 2);

}  // namespace edgeslice::core
