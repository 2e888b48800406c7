// The EdgeSlice middleware interfaces (Fig. 2 / Sec. V-D).
//
// These message types make the system's communication structure explicit:
//   VR    — virtual resource: agent <-> radio/transport/computing manager
//   RC-L  — resource coordination (learning): coordinator -> agents
//   RC-M  — resource coordination (monitoring): monitors -> coordinator
// The decentralization claim of the paper is inspectable here: the only
// recurring coordinator <-> RA traffic is RcLearningMessage (|I| doubles
// per RA per period) and RcMonitoringMessage (|I| doubles back).
#pragma once

#include <cstddef>
#include <vector>

namespace edgeslice::core {

/// Which technical domain a virtual-resource command addresses.
enum class Domain { Radio, Transport, Computing };

/// VR / VR-R / VR-T / VR-C: set one slice's share of one domain resource.
struct VrMessage {
  Domain domain = Domain::Radio;
  std::size_t ra = 0;
  std::size_t slice = 0;
  double fraction = 0.0;
};

/// RC-L: coordinating information for one RA's orchestration agent
/// (the per-slice z - y values).
struct RcLearningMessage {
  std::size_t ra = 0;
  std::vector<double> z_minus_y;  // one per slice
};

/// RC-M: a system monitor's per-period report to the coordinator.
struct RcMonitoringMessage {
  std::size_t ra = 0;
  std::vector<double> performance_sums;  // sum_t U per slice over the period
};

}  // namespace edgeslice::core
