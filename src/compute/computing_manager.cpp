#include "compute/computing_manager.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/metrics.h"
#include "compute/kernel_split.h"

namespace edgeslice::compute {

ComputingManager::ComputingManager(const ComputingManagerConfig& config)
    : config_(config), gpu_(config.gpu), slice_share_(config.slices, 0.0) {
  if (config.slices == 0) throw std::invalid_argument("ComputingManager: zero slices");
  slice_app_.reserve(config.slices);
  for (std::size_t i = 0; i < config.slices; ++i) {
    slice_app_.push_back(gpu_.register_app());
  }
}

void ComputingManager::set_slice_share(std::size_t slice, double fraction) {
  if (slice >= slice_share_.size()) throw std::out_of_range("ComputingManager: bad slice");
  if (fraction < 0.0 || fraction > 1.0)
    throw std::invalid_argument("ComputingManager: share must be in [0,1]");
  slice_share_[slice] = fraction;
  gpu_.set_thread_cap(slice_app_[slice], slice_threads(slice));
  // Fraction of the GPU's thread budget currently capped out to slices.
  std::size_t granted = 0;
  for (std::size_t i = 0; i < slice_share_.size(); ++i) granted += slice_threads(i);
  global_metrics().gauge("compute.thread_utilization")
      .set(static_cast<double>(granted) /
           static_cast<double>(std::max<std::size_t>(1, config_.gpu.total_threads)));
}

std::size_t ComputingManager::slice_threads(std::size_t slice) const {
  if (slice >= slice_share_.size()) throw std::out_of_range("ComputingManager: bad slice");
  return static_cast<std::size_t>(std::floor(
      slice_share_[slice] * static_cast<double>(config_.gpu.total_threads) + 1e-9));
}

void ComputingManager::register_ip(const std::string& ip, std::size_t slice) {
  if (slice >= slice_share_.size()) throw std::out_of_range("ComputingManager: bad slice");
  ip_to_slice_[ip] = slice;
}

std::size_t ComputingManager::slice_of_ip(const std::string& ip) const {
  const auto it = ip_to_slice_.find(ip);
  if (it == ip_to_slice_.end())
    throw std::out_of_range("ComputingManager: unknown IP " + ip);
  return it->second;
}

void ComputingManager::submit(std::size_t slice, const Kernel& kernel) {
  if (slice >= slice_share_.size()) throw std::out_of_range("ComputingManager: bad slice");
  const std::size_t quota = slice_threads(slice);
  if (quota == 0) {
    // A slice holding no compute resources cannot launch work; queue the
    // kernel unsplit — it will only run if a quota is assigned later.
    gpu_.submit(slice_app_[slice], kernel);
    return;
  }
  submit_split(gpu_, slice_app_[slice], kernel, quota);
}

std::vector<double> ComputingManager::run(double seconds, double tick) {
  const auto completed = gpu_.run(seconds, tick);
  std::vector<double> out(slice_share_.size(), 0.0);
  for (std::size_t i = 0; i < slice_share_.size(); ++i) {
    const auto it = completed.find(slice_app_[i]);
    if (it != completed.end()) out[i] = it->second;
  }
  return out;
}

double ComputingManager::service_time(std::size_t slice, double work) const {
  const std::size_t threads = slice_threads(slice);
  if (threads == 0) return std::numeric_limits<double>::infinity();
  return work / (static_cast<double>(threads) * config_.gpu.work_units_per_thread_per_second);
}

bool ComputingManager::idle(std::size_t slice) const {
  if (slice >= slice_share_.size()) throw std::out_of_range("ComputingManager: bad slice");
  return gpu_.idle(slice_app_[slice]);
}

}  // namespace edgeslice::compute
