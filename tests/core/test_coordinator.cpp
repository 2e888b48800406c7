#include "core/coordinator.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

namespace edgeslice::core {
namespace {

CoordinatorConfig make_config(std::size_t slices = 2, std::size_t ras = 2) {
  CoordinatorConfig config;
  config.slices = slices;
  config.ras = ras;
  config.u_min = std::vector<double>(slices, -50.0);  // paper default
  return config;
}

RcLearningMessage coordination(const PerformanceCoordinator& coordinator, std::size_t ra) {
  RcLearningMessage msg;
  coordinator.coordination_for_into(ra, msg);
  return msg;
}

TEST(Coordinator, InitialCoordinationIsZero) {
  PerformanceCoordinator coordinator(make_config());
  const auto msg = coordination(coordinator, 0);
  EXPECT_EQ(msg.z_minus_y.size(), 2u);
  EXPECT_DOUBLE_EQ(msg.z_minus_y[0], 0.0);
  EXPECT_DOUBLE_EQ(msg.z_minus_y[1], 0.0);
}

TEST(Coordinator, ValidatesConstruction) {
  CoordinatorConfig config;
  config.slices = 0;
  EXPECT_THROW(PerformanceCoordinator{config}, std::invalid_argument);
  config = make_config();
  config.u_min = {1.0};  // wrong size
  EXPECT_THROW(PerformanceCoordinator{config}, std::invalid_argument);
}

TEST(Coordinator, DefaultsUMinToMinus50) {
  CoordinatorConfig config;
  config.slices = 3;
  config.ras = 1;
  PerformanceCoordinator coordinator(config);
  EXPECT_EQ(coordinator.config().u_min, (std::vector<double>{-50, -50, -50}));
}

TEST(Coordinator, FeasiblePerformanceKeepsZEqualToUPlusY) {
  // When sum_j U_ij >= U_min, the projection is the identity: z = U + y,
  // and with y starting at 0 the dual stays 0.
  PerformanceCoordinator coordinator(make_config());
  nn::Matrix u{{-10.0, -15.0}, {-5.0, -20.0}};  // rows: slices, cols: RAs
  coordinator.update(u);
  EXPECT_DOUBLE_EQ(coordinator.z(0, 0), -10.0);
  EXPECT_DOUBLE_EQ(coordinator.z(1, 1), -20.0);
  EXPECT_DOUBLE_EQ(coordinator.y(0, 0), 0.0);
  EXPECT_TRUE(coordinator.sla_satisfied(0));
  EXPECT_TRUE(coordinator.sla_satisfied(1));
}

TEST(Coordinator, InfeasiblePerformanceProjectsOntoSla) {
  PerformanceCoordinator coordinator(make_config());
  nn::Matrix u{{-40.0, -40.0}, {-10.0, -10.0}};  // slice 0 violates -50
  coordinator.update(u);
  // z for slice 0 lands on the boundary: sum_j z = -50, deficit split.
  EXPECT_NEAR(coordinator.z(0, 0) + coordinator.z(0, 1), -50.0, 1e-9);
  EXPECT_NEAR(coordinator.z(0, 0), -25.0, 1e-9);
  EXPECT_TRUE(coordinator.sla_satisfied(0));
  // Dual reflects the violation: y = U - z = -40 + 25 = -15 per RA.
  EXPECT_NEAR(coordinator.y(0, 0), -15.0, 1e-9);
  // Coordination pushes the agent to improve: z - y = -25 + 15 = -10.
  EXPECT_NEAR(coordination(coordinator, 0).z_minus_y[0], -10.0, 1e-9);
}

TEST(Coordinator, DualAccumulatesAcrossIterations) {
  PerformanceCoordinator coordinator(make_config());
  nn::Matrix u{{-40.0, -40.0}, {-10.0, -10.0}};
  coordinator.update(u);
  coordinator.update(u);
  EXPECT_NEAR(coordinator.y(0, 0), -30.0, 1e-9);  // two violations accumulated
}

TEST(Coordinator, UpdateValidatesShape) {
  PerformanceCoordinator coordinator(make_config());
  EXPECT_THROW(coordinator.update(nn::Matrix(3, 2)), std::invalid_argument);
}

TEST(Coordinator, RejectsNonFinitePerformanceSums) {
  PerformanceCoordinator coordinator(make_config());
  nn::Matrix with_nan{{-1.0, std::nan("")}, {-2.0, -3.0}};
  EXPECT_THROW(coordinator.update(with_nan), std::invalid_argument);
  nn::Matrix with_inf{{-1.0, -2.0},
                      {-3.0, -std::numeric_limits<double>::infinity()}};
  EXPECT_THROW(coordinator.update(with_inf), std::invalid_argument);
  // A rejected update must not have poisoned z/y.
  EXPECT_DOUBLE_EQ(coordinator.z(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(coordinator.y(1, 1), 0.0);
}

TEST(Coordinator, MaskedUpdateFreezesInactiveColumns) {
  PerformanceCoordinator coordinator(make_config());
  nn::Matrix u{{-40.0, -40.0}, {-10.0, -10.0}};
  coordinator.update(u);
  const double z_frozen = coordinator.z(0, 1);
  const double y_frozen = coordinator.y(0, 1);
  nn::Matrix u2{{-30.0, 0.0}, {-5.0, 0.0}};  // column 1 is stale garbage
  coordinator.update(u2, {true, false});
  EXPECT_DOUBLE_EQ(coordinator.z(0, 1), z_frozen);
  EXPECT_DOUBLE_EQ(coordinator.y(0, 1), y_frozen);
  EXPECT_THROW(coordinator.update(u2, {true}), std::invalid_argument);  // bad mask size
}

TEST(Coordinator, MaskedUpdateWithAllActiveMatchesUnmasked) {
  PerformanceCoordinator masked(make_config());
  PerformanceCoordinator plain(make_config());
  nn::Matrix u{{-40.0, -40.0}, {-10.0, -10.0}};
  masked.update(u, {true, true});
  plain.update(u);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      EXPECT_EQ(masked.z(i, j), plain.z(i, j));
      EXPECT_EQ(masked.y(i, j), plain.y(i, j));
    }
  }
}

TEST(Coordinator, ConvergesWhenPerformanceStabilizesFeasibly) {
  PerformanceCoordinator coordinator(make_config());
  nn::Matrix u{{-10.0, -10.0}, {-10.0, -10.0}};
  for (int i = 0; i < 5; ++i) coordinator.update(u);
  // Feasible + constant: primal residual 0 after first iteration, dual 0
  // after second -> converged.
  EXPECT_TRUE(coordinator.converged());
}

TEST(Coordinator, ScalesToManyRasAndSlices) {
  auto config = make_config(5, 10);
  PerformanceCoordinator coordinator(config);
  nn::Matrix u(5, 10, -2.0);
  coordinator.update(u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(coordinator.sla_satisfied(i));  // -20 total >= -50
    EXPECT_EQ(coordination(coordinator, 9).z_minus_y.size(), 5u);
  }
}

}  // namespace
}  // namespace edgeslice::core
