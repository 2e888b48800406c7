#include "env/service_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace edgeslice::env {

RaCapacity prototype_capacity() {
  RaCapacity cap;
  // 25 PRBs at CQI 9 (16QAM): see radio/lte.h.
  cap.radio_bits_per_second = radio::tbs_bits(25, 9) * 1000.0;
  cap.transport_bits_per_second = 80e6;
  cap.compute_work_per_second = 51200.0;
  return cap;
}

RaCapacity measure_capacity(radio::RadioManager& radio,
                            transport::TransportManager& transport,
                            compute::ComputingManager& computing) {
  RaCapacity cap;
  // Temporarily grant slice 0 everything and read back the capacities.
  radio.set_slice_share(0, 1.0);
  cap.radio_bits_per_second = radio.slice_capacity_bits(0, 1.0);
  radio.set_slice_share(0, 0.0);

  transport.set_slice_share(0, 1.0);
  cap.transport_bits_per_second = transport.slice_rate_mbps(0) * 1e6;
  transport.set_slice_share(0, 0.0);

  computing.set_slice_share(0, 1.0);
  cap.compute_work_per_second =
      1.0 / computing.service_time(0, 1.0);  // work units per second at full share
  computing.set_slice_share(0, 0.0);
  return cap;
}

DirectServiceModel::DirectServiceModel(const RaCapacity& capacity) : capacity_(capacity) {
  if (capacity.radio_bits_per_second <= 0.0 || capacity.transport_bits_per_second <= 0.0 ||
      capacity.compute_work_per_second <= 0.0) {
    throw std::invalid_argument("DirectServiceModel: non-positive capacity");
  }
}

double DirectServiceModel::service_time(const AppProfile& profile,
                                        const Allocation& allocation) const {
  for (double a : allocation) {
    if (!(a >= 0.0 && a <= 1.0))
      throw std::invalid_argument("DirectServiceModel: allocation outside [0,1]");
  }
  double total = 0.0;
  const auto stage = [&](double demand, double capacity, double fraction) {
    if (demand <= 0.0) return 0.0;
    if (fraction <= 0.0) return kServiceTimeCap;
    return demand / (capacity * fraction);
  };
  total += stage(profile.uplink_bits, capacity_.radio_bits_per_second, allocation[kRadio]);
  total += stage(profile.uplink_bits, capacity_.transport_bits_per_second,
                 allocation[kTransport]);
  total += stage(profile.compute_work, capacity_.compute_work_per_second,
                 allocation[kCompute]);
  return std::min(total, kServiceTimeCap);
}

GridDataset::GridDataset(const AppProfile& profile, const ServiceModel& ground_truth,
                         double granularity)
    : profile_(profile), granularity_(granularity) {
  if (granularity <= 0.0 || granularity > 1.0)
    throw std::invalid_argument("GridDataset: granularity in (0,1]");
  points_per_axis_ = static_cast<std::size_t>(std::round(1.0 / granularity)) + 1;
  samples_.reserve(points_per_axis_ * points_per_axis_ * points_per_axis_);
  for (std::size_t r = 0; r < points_per_axis_; ++r) {
    for (std::size_t t = 0; t < points_per_axis_; ++t) {
      for (std::size_t c = 0; c < points_per_axis_; ++c) {
        Allocation a{static_cast<double>(r) * granularity,
                     static_cast<double>(t) * granularity,
                     static_cast<double>(c) * granularity};
        for (auto& v : a) v = std::min(v, 1.0);
        samples_.push_back(GridSample{a, ground_truth.service_time(profile, a)});
      }
    }
  }
}

std::vector<GridSample> GridDataset::adjacent(const Allocation& allocation) const {
  // Indices of the floor/ceil grid lines per axis.
  std::array<std::array<std::size_t, 2>, kResources> bounds{};
  for (std::size_t k = 0; k < kResources; ++k) {
    const double pos = std::clamp(allocation[k], 0.0, 1.0) / granularity_;
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, points_per_axis_ - 1);
    bounds[k] = {std::min(lo, points_per_axis_ - 1), hi};
  }
  std::vector<GridSample> out;
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      for (std::size_t k = 0; k < 2; ++k) {
        const std::size_t idx = (bounds[0][i] * points_per_axis_ + bounds[1][j]) *
                                    points_per_axis_ +
                                bounds[2][k];
        out.push_back(samples_[idx]);
      }
    }
  }
  // Deduplicate corners that collapsed on a grid boundary.
  std::sort(out.begin(), out.end(), [](const GridSample& a, const GridSample& b) {
    return a.allocation < b.allocation;
  });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const GridSample& a, const GridSample& b) {
                          return a.allocation == b.allocation;
                        }),
            out.end());
  return out;
}

LocalLinearServiceModel::LocalLinearServiceModel(
    std::shared_ptr<const GridDataset> dataset)
    : dataset_(std::move(dataset)) {
  if (!dataset_) throw std::invalid_argument("LocalLinearServiceModel: null dataset");
  // Pre-fit one local model per grid cell. adjacent() depends only on the
  // per-axis floor indices, so any query lands on one of these cells and
  // gets the exact model query-time fitting would have produced.
  points_per_axis_ = dataset_->points_per_axis();
  const std::size_t cells = points_per_axis_ * points_per_axis_ * points_per_axis_;
  cells_.resize(cells);
  const double granularity = dataset_->granularity();
  for (std::size_t l0 = 0; l0 < points_per_axis_; ++l0) {
    for (std::size_t l1 = 0; l1 < points_per_axis_; ++l1) {
      for (std::size_t l2 = 0; l2 < points_per_axis_; ++l2) {
        // A point strictly inside the cell reproduces adjacent()'s floor
        // indices (for the last grid line the cell degenerates in place).
        const Allocation probe{
            std::min((static_cast<double>(l0) + 0.5) * granularity, 1.0),
            std::min((static_cast<double>(l1) + 0.5) * granularity, 1.0),
            std::min((static_cast<double>(l2) + 0.5) * granularity, 1.0)};
        const auto neighbors = dataset_->adjacent(probe);
        CellModel& cell =
            cells_[(l0 * points_per_axis_ + l1) * points_per_axis_ + l2];
        if (neighbors.size() < 2) {
          cell.fallback =
              neighbors.empty() ? kServiceTimeCap : neighbors.front().service_time;
          continue;
        }
        nn::Matrix x(neighbors.size(), kResources);
        std::vector<double> y(neighbors.size());
        for (std::size_t n = 0; n < neighbors.size(); ++n) {
          for (std::size_t k = 0; k < kResources; ++k) {
            x(n, k) = neighbors[n].allocation[k];
          }
          y[n] = neighbors[n].service_time;
        }
        const auto model = opt::fit_linear(x, y, 1e-9);
        for (std::size_t k = 0; k < kResources; ++k) {
          cell.coefficients[k] = model.coefficients[k];
        }
        cell.intercept = model.intercept;
        cell.fitted = true;
      }
    }
  }
}

double LocalLinearServiceModel::service_time(const AppProfile& profile,
                                             const Allocation& allocation) const {
  (void)profile;  // the dataset is profile-specific
  // Same cell selection as GridDataset::adjacent — clamp, divide by the
  // granularity, floor, clamp to the last grid line.
  const double granularity = dataset_->granularity();
  std::size_t index = 0;
  for (std::size_t k = 0; k < kResources; ++k) {
    const double pos = std::clamp(allocation[k], 0.0, 1.0) / granularity;
    const std::size_t lo = std::min(static_cast<std::size_t>(std::floor(pos)),
                                    points_per_axis_ - 1);
    index = index * points_per_axis_ + lo;
  }
  const CellModel& cell = cells_[index];
  if (!cell.fitted) return cell.fallback;
  // LinearModel::predict's accumulation order, term for term.
  double predicted = cell.intercept;
  for (std::size_t k = 0; k < kResources; ++k) {
    predicted += cell.coefficients[k] * allocation[k];
  }
  return std::clamp(predicted, 0.0, kServiceTimeCap);
}

PerProfileLinearServiceModel::PerProfileLinearServiceModel(
    const std::vector<AppProfile>& profiles, const ServiceModel& ground_truth,
    double granularity) {
  if (profiles.empty())
    throw std::invalid_argument("PerProfileLinearServiceModel: no profiles");
  for (const auto& profile : profiles) {
    if (models_.count(profile.name)) continue;  // slices may share a profile
    models_.emplace(profile.name,
                    LocalLinearServiceModel(
                        std::make_shared<GridDataset>(profile, ground_truth, granularity)));
  }
}

double PerProfileLinearServiceModel::service_time(const AppProfile& profile,
                                                  const Allocation& allocation) const {
  return resolve(profile).service_time(profile, allocation);
}

const ServiceModel& PerProfileLinearServiceModel::resolve(const AppProfile& profile) const {
  const auto it = models_.find(profile.name);
  if (it == models_.end())
    throw std::invalid_argument("PerProfileLinearServiceModel: unknown profile " +
                                profile.name);
  return it->second;
}

}  // namespace edgeslice::env
