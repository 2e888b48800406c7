#include "radio/radio_manager.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "common/metrics.h"
#include "radio/lte.h"

namespace edgeslice::radio {

namespace {

std::vector<std::size_t> quotas_from_shares(const std::vector<double>& shares,
                                            std::size_t total_prbs) {
  std::vector<std::size_t> quotas(shares.size());
  for (std::size_t i = 0; i < shares.size(); ++i) {
    quotas[i] = static_cast<std::size_t>(
        std::floor(shares[i] * static_cast<double>(total_prbs) + 1e-9));
  }
  return quotas;
}

}  // namespace

RadioManager::RadioManager(const RadioManagerConfig& config, Rng& rng)
    : config_(config),
      slice_share_(config.slices, 0.0),
      scheduler_(prbs_for_bandwidth_mhz(config.bandwidth_mhz),
                 std::vector<std::size_t>(config.slices, 0)) {
  (void)rng;
  if (config.slices == 0) throw std::invalid_argument("RadioManager: zero slices");
}

void RadioManager::set_slice_share(std::size_t slice, double fraction) {
  if (slice >= slice_share_.size()) throw std::out_of_range("RadioManager: bad slice");
  if (fraction < 0.0 || fraction > 1.0)
    throw std::invalid_argument("RadioManager: share must be in [0,1]");
  slice_share_[slice] = fraction;
  const auto quotas = quotas_from_shares(slice_share_, scheduler_.total_prbs());
  scheduler_.set_quotas(quotas);
  // Fraction of the cell's PRBs currently granted to slices (RAs share
  // the gauge: it tracks the most recent reconfiguration system-wide).
  const auto granted = std::accumulate(quotas.begin(), quotas.end(), std::size_t{0});
  global_metrics().gauge("radio.prb_utilization")
      .set(static_cast<double>(granted) /
           static_cast<double>(std::max<std::size_t>(1, scheduler_.total_prbs())));
}

std::size_t RadioManager::slice_prbs(std::size_t slice) const {
  if (slice >= slice_share_.size()) throw std::out_of_range("RadioManager: bad slice");
  return quotas_from_shares(slice_share_, scheduler_.total_prbs())[slice];
}

void RadioManager::register_imsi(const std::string& imsi, std::size_t slice) {
  if (slice >= slice_share_.size()) throw std::out_of_range("RadioManager: bad slice");
  imsi_to_slice_[imsi] = slice;
}

void RadioManager::on_attach(const S1apAttach& message, std::size_t mean_cqi) {
  const auto it = imsi_to_slice_.find(message.imsi);
  if (it == imsi_to_slice_.end())
    throw std::invalid_argument("RadioManager: unknown IMSI " + message.imsi);
  users_.emplace(message.user_id,
                 UserState{it->second, ChannelModel(mean_cqi), 0.0});
}

std::size_t RadioManager::slice_of_user(std::size_t user_id) const {
  const auto it = users_.find(user_id);
  if (it == users_.end()) throw std::out_of_range("RadioManager: unknown user");
  return it->second.slice;
}

void RadioManager::enqueue_bits(std::size_t user_id, double bits) {
  const auto it = users_.find(user_id);
  if (it == users_.end()) throw std::out_of_range("RadioManager: unknown user");
  if (bits < 0.0) throw std::invalid_argument("RadioManager: negative bits");
  it->second.backlog_bits += bits;
}

double RadioManager::user_backlog(std::size_t user_id) const {
  const auto it = users_.find(user_id);
  if (it == users_.end()) throw std::out_of_range("RadioManager: unknown user");
  return it->second.backlog_bits;
}

std::vector<double> RadioManager::run(std::size_t ttis, Rng& rng) {
  std::vector<double> served(slice_share_.size(), 0.0);
  for (std::size_t t = 0; t < ttis; ++t) {
    std::vector<UserDemand> demands;
    demands.reserve(users_.size());
    for (auto& [id, user] : users_) {
      user.channel.step(rng);
      if (user.backlog_bits <= 0.0) continue;
      demands.push_back(UserDemand{id, user.slice, user.channel.cqi(), user.backlog_bits});
    }
    if (demands.empty()) continue;
    const TtiSchedule schedule = scheduler_.schedule(demands);
    for (const auto& grant : schedule.grants) {
      auto& user = users_.at(grant.user_id);
      user.backlog_bits = std::max(0.0, user.backlog_bits - grant.bits);
    }
    for (std::size_t s = 0; s < served.size(); ++s) {
      served[s] += schedule.slice_served_bits[s];
    }
  }
  return served;
}

double RadioManager::slice_capacity_bits(std::size_t slice, double seconds,
                                         std::size_t cqi) const {
  const std::size_t prbs = slice_prbs(slice);
  return tbs_bits(prbs, cqi) * seconds * 1000.0;  // 1000 TTIs per second
}

}  // namespace edgeslice::radio
