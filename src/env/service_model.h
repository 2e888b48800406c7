// End-to-end service-time models (Sec. VI-B).
//
// A task's service time is the serial pipeline of radio upload, transport
// transfer, and GPU inference, each determined by the fraction of that
// domain's resource the slice holds. Two models are provided:
//
//  * DirectServiceModel — computes the pipeline analytically from the RA's
//    substrate capacities (used as ground truth, and to generate data);
//  * LocalLinearServiceModel — the paper's approach: a grid-search dataset
//    at 10% action granularity plus a local linear regression fitted on
//    the adjacent grid actions of a queried orchestration action.
#pragma once

#include <array>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "compute/computing_manager.h"
#include "env/app_model.h"
#include "opt/linreg.h"
#include "radio/radio_manager.h"
#include "transport/transport_manager.h"

namespace edgeslice::env {

/// Number of resource domains: radio, transport, computing.
inline constexpr std::size_t kResources = 3;
enum ResourceKind : std::size_t { kRadio = 0, kTransport = 1, kCompute = 2 };

/// Per-resource allocation fractions for one slice.
using Allocation = std::array<double, kResources>;

/// Full-allocation capacities of one RA's substrates.
struct RaCapacity {
  double radio_bits_per_second = 0.0;
  double transport_bits_per_second = 0.0;
  double compute_work_per_second = 0.0;
};

/// Capacities matching the prototype (Table II): 5 MHz LTE carrier at a
/// mid-range CQI, an 80 Mbps transport link, and a 51200-thread GPU.
RaCapacity prototype_capacity();

/// Derive the capacity by driving the actual resource managers at 100%
/// allocation — keeps the environment's ground truth tied to the substrate
/// implementations rather than to constants.
RaCapacity measure_capacity(radio::RadioManager& radio,
                            transport::TransportManager& transport,
                            compute::ComputingManager& computing);

/// Service times above this cap are reported as the cap (a slice holding
/// no resources cannot serve; the cap keeps regressions finite).
inline constexpr double kServiceTimeCap = 1e4;

class ServiceModel {
 public:
  virtual ~ServiceModel() = default;
  /// Seconds to serve one task of `profile` under `allocation`.
  virtual double service_time(const AppProfile& profile,
                              const Allocation& allocation) const = 0;
  /// The model that answers service_time() for `profile`, for callers
  /// that query one profile many times (RaEnvironment resolves each slice
  /// once): resolve(p).service_time(p, a) == service_time(p, a). A model
  /// that dispatches on the profile returns its inner model; the default
  /// is the model itself.
  virtual const ServiceModel& resolve(const AppProfile& profile) const {
    (void)profile;
    return *this;
  }
};

class DirectServiceModel final : public ServiceModel {
 public:
  explicit DirectServiceModel(const RaCapacity& capacity);
  double service_time(const AppProfile& profile,
                      const Allocation& allocation) const override;

 private:
  RaCapacity capacity_;
};

/// One measured grid point.
struct GridSample {
  Allocation allocation;
  double service_time = 0.0;
};

/// The grid-search dataset for one application profile: all allocations at
/// the configured granularity, measured through a ground-truth model.
class GridDataset {
 public:
  GridDataset(const AppProfile& profile, const ServiceModel& ground_truth,
              double granularity = 0.1);

  const std::vector<GridSample>& samples() const { return samples_; }
  double granularity() const { return granularity_; }
  std::size_t points_per_axis() const { return points_per_axis_; }
  const AppProfile& profile() const { return profile_; }

  /// The grid actions adjacent to `allocation`: the corners of the grid
  /// cell containing it (up to 8 points), e.g. [12,38,22]% ->
  /// {[10,30,20], [10,40,20], ...}%.
  std::vector<GridSample> adjacent(const Allocation& allocation) const;

 private:
  AppProfile profile_;
  double granularity_;
  std::size_t points_per_axis_;
  std::vector<GridSample> samples_;
};

/// Sec. VI-B: fit a linear model on the adjacent grid samples of the
/// queried action and predict the service time from it.
///
/// The fit for a query depends only on which grid cell the query falls
/// in, so the constructor pre-fits one model per cell and service_time
/// is a table lookup plus a 3-term dot product — allocation-free and
/// bit-identical to fitting at query time (same neighbors, same
/// fit_linear, same predict arithmetic). This is what keeps the warm
/// environment step loop off the heap at city scale (see
/// tests/env/test_env_alloc.cpp).
class LocalLinearServiceModel final : public ServiceModel {
 public:
  explicit LocalLinearServiceModel(std::shared_ptr<const GridDataset> dataset);
  double service_time(const AppProfile& profile,
                      const Allocation& allocation) const override;

 private:
  struct CellModel {
    std::array<double, kResources> coefficients{};
    double intercept = 0.0;
    double fallback = 0.0;  // used when the cell collapses to < 2 unique corners
    bool fitted = false;
  };

  std::shared_ptr<const GridDataset> dataset_;
  std::size_t points_per_axis_ = 0;
  std::vector<CellModel> cells_;  // one per (lo0, lo1, lo2) grid cell
};

/// Dispatches to a profile-specific grid model by profile name — one grid
/// dataset per application profile, as in Fig. 5 where every slice has its
/// own data set + linear model. Unknown profiles throw.
class PerProfileLinearServiceModel final : public ServiceModel {
 public:
  /// Build grid datasets for all `profiles` against one ground truth.
  PerProfileLinearServiceModel(const std::vector<AppProfile>& profiles,
                               const ServiceModel& ground_truth,
                               double granularity = 0.1);
  double service_time(const AppProfile& profile,
                      const Allocation& allocation) const override;
  /// The profile's own grid model; throws for an unknown profile.
  const ServiceModel& resolve(const AppProfile& profile) const override;
  std::size_t profile_count() const { return models_.size(); }

 private:
  std::map<std::string, LocalLinearServiceModel> models_;
};

}  // namespace edgeslice::env
