// Property test: the coordinator's ADMM loop solves the consensus problem
// it is built for. Scripted "agents" respond to the coordinating
// information by delivering performance that tracks the target (as the
// trained DRL agents do, per the reward in Eq. 15); the coordinator's z
// must converge onto the SLA boundary and the duals must stabilize.
#include <gtest/gtest.h>

#include "core/coordinator.h"

namespace edgeslice::core {
namespace {

class ConsensusSweep : public ::testing::TestWithParam<std::tuple<int, int, double>> {};

TEST_P(ConsensusSweep, TrackingAgentsReachConsensus) {
  const auto [slices_int, ras_int, u_min] = GetParam();
  const auto slices = static_cast<std::size_t>(slices_int);
  const auto ras = static_cast<std::size_t>(ras_int);

  CoordinatorConfig config;
  config.slices = slices;
  config.ras = ras;
  config.u_min = std::vector<double>(slices, u_min);
  PerformanceCoordinator coordinator(config);

  // Agent model: each RA delivers exactly what the coordinator asks for,
  // up to a performance ceiling of 0 (queues cannot be negative) and a
  // floor representing finite resources.
  const double floor = u_min;  // an RA can at worst deliver the whole SLA
  nn::Matrix u(slices, ras);
  RcLearningMessage coordination;
  for (int iteration = 0; iteration < 60; ++iteration) {
    for (std::size_t i = 0; i < slices; ++i) {
      for (std::size_t j = 0; j < ras; ++j) {
        coordinator.coordination_for_into(j, coordination);
        const double target =
            coordination.z_minus_y.empty() ? 0.0 : coordination.z_minus_y[i];
        u(i, j) = std::clamp(target, floor, 0.0);
      }
    }
    coordinator.update(u);
  }

  // Consensus: every slice's z sums to at least U_min, duals finite, and
  // the delivered performance satisfies the SLA.
  for (std::size_t i = 0; i < slices; ++i) {
    EXPECT_TRUE(coordinator.sla_satisfied(i)) << "slice " << i;
    double delivered = 0.0;
    for (std::size_t j = 0; j < ras; ++j) delivered += u(i, j);
    EXPECT_GE(delivered, u_min - 1.0) << "slice " << i;
    for (std::size_t j = 0; j < ras; ++j) {
      EXPECT_LT(std::abs(coordinator.y(i, j)), 1e3) << "dual diverged";
    }
  }
  EXPECT_TRUE(coordinator.converged());
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ConsensusSweep,
    ::testing::Values(std::make_tuple(2, 2, -50.0), std::make_tuple(2, 2, -10.0),
                      std::make_tuple(5, 10, -50.0), std::make_tuple(3, 7, -25.0),
                      std::make_tuple(1, 1, -50.0), std::make_tuple(7, 3, -100.0)),
    [](const auto& param_info) {
      return "s" + std::to_string(std::get<0>(param_info.param)) + "r" +
             std::to_string(std::get<1>(param_info.param)) + "u" +
             std::to_string(static_cast<int>(-std::get<2>(param_info.param)));
    });

}  // namespace
}  // namespace edgeslice::core
