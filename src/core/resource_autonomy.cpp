#include "core/resource_autonomy.h"

#include <algorithm>
#include <stdexcept>

namespace edgeslice::core {

ResourceAutonomyConfig prototype_ra_config(std::size_t ra_id, std::size_t slices) {
  ResourceAutonomyConfig config;
  config.ra_id = ra_id;
  config.slices = slices;
  config.radio.slices = slices;
  config.radio.bandwidth_mhz = 5.0;
  config.transport.slices = slices;
  config.transport.link_capacity_mbps = 80.0;
  config.transport.switches = 6;
  config.computing.slices = slices;
  config.computing.gpu.total_threads = 51200;
  return config;
}

ResourceAutonomy::ResourceAutonomy(const ResourceAutonomyConfig& config, Rng& rng)
    : config_(config),
      radio_(std::make_unique<radio::RadioManager>(config.radio, rng)),
      transport_(std::make_unique<transport::TransportManager>(config.transport)),
      computing_(std::make_unique<compute::ComputingManager>(config.computing)) {
  if (config.slices == 0) throw std::invalid_argument("ResourceAutonomy: zero slices");
  if (config.radio.slices != config.slices || config.transport.slices != config.slices ||
      config.computing.slices != config.slices) {
    throw std::invalid_argument("ResourceAutonomy: manager slice counts must match");
  }
}

std::vector<VrMessage> ResourceAutonomy::apply(const std::vector<double>& action) {
  if (action.size() != config_.slices * env::kResources)
    throw std::invalid_argument("ResourceAutonomy::apply: action size mismatch");

  // Per-resource proportional scaling when over-subscribed.
  std::array<double, env::kResources> usage{};
  for (std::size_t i = 0; i < config_.slices; ++i) {
    for (std::size_t k = 0; k < env::kResources; ++k) {
      usage[k] += std::clamp(action[i * env::kResources + k], 0.0, 1.0);
    }
  }
  std::array<double, env::kResources> scale{};
  for (std::size_t k = 0; k < env::kResources; ++k) {
    scale[k] = usage[k] > 1.0 ? 1.0 / usage[k] : 1.0;
  }

  std::vector<VrMessage> messages;
  messages.reserve(action.size());
  for (std::size_t i = 0; i < config_.slices; ++i) {
    const double radio_share =
        std::clamp(action[i * env::kResources + env::kRadio], 0.0, 1.0) *
        scale[env::kRadio];
    const double transport_share =
        std::clamp(action[i * env::kResources + env::kTransport], 0.0, 1.0) *
        scale[env::kTransport];
    const double compute_share =
        std::clamp(action[i * env::kResources + env::kCompute], 0.0, 1.0) *
        scale[env::kCompute];

    radio_->set_slice_share(i, radio_share);
    transport_->set_slice_share(i, transport_share);
    computing_->set_slice_share(i, compute_share);

    messages.push_back(VrMessage{Domain::Radio, config_.ra_id, i, radio_share});
    messages.push_back(VrMessage{Domain::Transport, config_.ra_id, i, transport_share});
    messages.push_back(VrMessage{Domain::Computing, config_.ra_id, i, compute_share});
  }
  return messages;
}

void ResourceAutonomy::attach_user(const std::string& imsi, const std::string& ip,
                                   std::size_t user_id, std::size_t slice) {
  radio_->register_imsi(imsi, slice);
  radio_->on_attach(radio::S1apAttach{imsi, config_.ra_id, user_id});
  transport_->register_slice_endpoints(slice, ip,
                                       "192.168." + std::to_string(config_.ra_id) + "." +
                                           std::to_string(slice + 1));
  computing_->register_ip(ip, slice);
}

env::RaCapacity ResourceAutonomy::capacity() {
  return env::measure_capacity(*radio_, *transport_, *computing_);
}

}  // namespace edgeslice::core
