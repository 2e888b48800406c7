#include "core/monitor.h"

#include <algorithm>
#include <stdexcept>

#include "common/metrics.h"

namespace edgeslice::core {

SystemMonitor::SystemMonitor(std::size_t slices, std::size_t ras)
    : slices_(slices), ras_(ras) {
  if (slices == 0 || ras == 0) throw std::invalid_argument("SystemMonitor: empty system");
}

std::vector<double>& SystemMonitor::sums_for(std::size_t ra, std::size_t period) {
  const std::pair<std::size_t, std::size_t> key{period, ra};
  auto it = period_sums_.find(key);
  if (it == period_sums_.end()) {
    if (sum_retention_ > 0 && !period_sums_.empty() &&
        period_sums_.begin()->first.first + sum_retention_ <= period) {
      // Recycle the expired node (map node + sum vector capacity) for the
      // new period: one node expires per (period, ra) slot that opens, so
      // the warmed-up map never allocates.
      auto node = period_sums_.extract(period_sums_.begin());
      node.key() = key;
      it = period_sums_.insert(std::move(node)).position;
    } else {
      it = period_sums_.emplace(key, std::vector<double>()).first;
    }
    it->second.assign(slices_, 0.0);
  }
  return it->second;
}

void SystemMonitor::add_period_sums(std::size_t ra, std::size_t period,
                                    const std::vector<double>& sums) {
  if (ra >= ras_) throw std::out_of_range("SystemMonitor::add_period_sums: bad RA");
  auto& running = sums_for(ra, period);
  for (std::size_t i = 0; i < slices_ && i < sums.size(); ++i) running[i] += sums[i];
}

void SystemMonitor::record(std::size_t ra, std::size_t period, std::size_t interval,
                           const env::StepResult& result,
                           const std::vector<double>& action) {
  if (ra >= ras_) throw std::out_of_range("SystemMonitor::record: bad RA");

  // Fold the row into the (period, ra) running sums in arrival order —
  // exactly the accumulation a full-history rescan would perform, so
  // report() stays bit-identical to the O(rows) implementation.
  auto& sums = sums_for(ra, period);
  for (std::size_t i = 0; i < slices_ && i < result.performance.size(); ++i) {
    sums[i] += result.performance[i];
  }

  if (!row_recording_) return;
  IntervalRecord row;
  row.period = period;
  row.interval = interval;
  row.ra = ra;
  row.queue_lengths = result.queue_lengths;
  row.performance = result.performance;
  row.action = action;
  row.reward = result.reward;
  records_.push_back(std::move(row));
  global_metrics().counter("monitor.rows_recorded").add();

  // Retention: evict the oldest rows in chunks (a quarter of the cap at a
  // time) so a long run pays amortized O(1) per record instead of an
  // O(cap) front-erase on every append.
  if (retention_cap_ > 0 && records_.size() > retention_cap_ + retention_cap_ / 4) {
    const std::size_t excess = records_.size() - retention_cap_;
    records_.erase(records_.begin(),
                   records_.begin() + static_cast<std::ptrdiff_t>(excess));
    evicted_rows_ += excess;
    global_metrics().counter("monitor.rows_evicted").add(excess);
  }
}

RcMonitoringMessage SystemMonitor::report(std::size_t ra, std::size_t period) const {
  if (ra >= ras_) throw std::out_of_range("SystemMonitor::report: bad RA");
  RcMonitoringMessage msg;
  msg.ra = ra;
  const auto it = period_sums_.find({period, ra});
  if (it != period_sums_.end()) {
    msg.performance_sums = it->second;
  } else {
    msg.performance_sums.assign(slices_, 0.0);
  }
  return msg;
}

std::vector<double> SystemMonitor::system_performance_series() const {
  std::size_t max_interval = 0;
  for (const auto& row : records_) max_interval = std::max(max_interval, row.interval);
  std::vector<double> series(records_.empty() ? 0 : max_interval + 1, 0.0);
  for (const auto& row : records_) {
    for (double u : row.performance) series[row.interval] += u;
  }
  return series;
}

std::vector<std::vector<double>> SystemMonitor::slice_performance_series() const {
  std::size_t max_interval = 0;
  for (const auto& row : records_) max_interval = std::max(max_interval, row.interval);
  std::vector<std::vector<double>> series(
      slices_, std::vector<double>(records_.empty() ? 0 : max_interval + 1, 0.0));
  for (const auto& row : records_) {
    for (std::size_t i = 0; i < slices_ && i < row.performance.size(); ++i) {
      series[i][row.interval] += row.performance[i];
    }
  }
  return series;
}

std::vector<double> SystemMonitor::resource_usage_series(std::size_t ra, std::size_t slice,
                                                         std::size_t resource) const {
  if (ra >= ras_ || slice >= slices_ || resource >= env::kResources)
    throw std::out_of_range("SystemMonitor::resource_usage_series: bad index");
  std::size_t max_interval = 0;
  for (const auto& row : records_) max_interval = std::max(max_interval, row.interval);
  std::vector<double> series(records_.empty() ? 0 : max_interval + 1, 0.0);
  for (const auto& row : records_) {
    if (row.ra != ra) continue;
    const std::size_t idx = slice * env::kResources + resource;
    if (idx < row.action.size()) series[row.interval] = row.action[idx];
  }
  return series;
}

void SystemMonitor::register_user(const UserAssociation& user) {
  if (user.slice >= slices_) throw std::invalid_argument("SystemMonitor: bad slice");
  if (imsi_index_.count(user.imsi) || ip_index_.count(user.ip))
    throw std::invalid_argument("SystemMonitor: duplicate user identity");
  imsi_index_[user.imsi] = users_.size();
  ip_index_[user.ip] = users_.size();
  users_.push_back(user);
}

std::size_t SystemMonitor::slice_of_imsi(const std::string& imsi) const {
  const auto it = imsi_index_.find(imsi);
  if (it == imsi_index_.end()) throw std::out_of_range("SystemMonitor: unknown IMSI");
  return users_[it->second].slice;
}

}  // namespace edgeslice::core
