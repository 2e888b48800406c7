// Computing resource manager — the VR-C middleware of Sec. V-C.
//
// Maps the orchestration agent's virtual-resource fraction for a slice
// onto a concurrent-thread quota on the RA's GPU and enforces it through
// the kernel-split mechanism. User/slice association is by IP address.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "compute/gpu.h"

namespace edgeslice::compute {

struct ComputingManagerConfig {
  GpuConfig gpu;           // prototype: 51200 threads per RA
  std::size_t slices = 2;
};

class ComputingManager {
 public:
  explicit ComputingManager(const ComputingManagerConfig& config);

  /// --- VR-C interface -----------------------------------------------------
  /// Set slice i's share of the GPU threads (fraction in [0,1]).
  void set_slice_share(std::size_t slice, double fraction);
  std::size_t slice_threads(std::size_t slice) const;

  /// Associate a user IP with a slice (how VR-C identifies tenants).
  void register_ip(const std::string& ip, std::size_t slice);
  std::size_t slice_of_ip(const std::string& ip) const;

  /// --- Workload path --------------------------------------------------------
  /// Submit an inference kernel for a slice's application; split against
  /// the slice's quota.
  void submit(std::size_t slice, const Kernel& kernel);

  /// Advance the GPU and return work completed per slice.
  std::vector<double> run(double seconds, double tick = 1e-3);

  /// Analytic service time for `work` units on slice's current quota,
  /// assuming the slice runs alone at its cap (used by the grid dataset).
  double service_time(std::size_t slice, double work) const;

  bool idle(std::size_t slice) const;
  std::size_t slice_count() const { return slice_share_.size(); }
  const Gpu& gpu() const { return gpu_; }

 private:
  ComputingManagerConfig config_;
  Gpu gpu_;
  std::vector<std::size_t> slice_app_;   // GPU app id per slice
  std::vector<double> slice_share_;
  std::map<std::string, std::size_t> ip_to_slice_;
};

}  // namespace edgeslice::compute
