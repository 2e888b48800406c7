#include "opt/projection.h"

#include <gtest/gtest.h>

#include <numeric>

#include "common/rng.h"

namespace edgeslice::opt {
namespace {

double vec_sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

std::vector<double> project_halfspace_sum_ge(const std::vector<double>& c, double bound) {
  std::vector<double> z;
  project_halfspace_sum_ge_into(c, bound, z);
  return z;
}

double dist2(const std::vector<double>& a, const std::vector<double>& b) {
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) d += (a[i] - b[i]) * (a[i] - b[i]);
  return d;
}

TEST(HalfspaceGe, FeasiblePointUnchanged) {
  const std::vector<double> c{3.0, 4.0};
  EXPECT_EQ(project_halfspace_sum_ge(c, 5.0), c);
}

TEST(HalfspaceGe, InfeasibleLandsOnBoundary) {
  const auto z = project_halfspace_sum_ge({0.0, 0.0}, 4.0);
  EXPECT_NEAR(vec_sum(z), 4.0, 1e-12);
  EXPECT_NEAR(z[0], 2.0, 1e-12);
}

TEST(HalfspaceGe, EmptyThrows) {
  EXPECT_THROW(project_halfspace_sum_ge({}, 1.0), std::invalid_argument);
}

// Property: the projection is the closest feasible point — no random
// feasible point may be closer.
TEST(HalfspaceGe, ProjectionIsClosestFeasiblePoint) {
  Rng rng(1);
  for (int trial = 0; trial < 200; ++trial) {
    const auto c = rng.normals(4, 0.0, 5.0);
    const double bound = rng.uniform(-10, 10);
    const auto z = project_halfspace_sum_ge(c, bound);
    EXPECT_GE(vec_sum(z), bound - 1e-9);
    const double best = dist2(c, z);
    for (int k = 0; k < 20; ++k) {
      auto candidate = rng.normals(4, 0.0, 5.0);
      candidate = project_halfspace_sum_ge(candidate, bound);  // feasible point
      EXPECT_GE(dist2(c, candidate), best - 1e-9);
    }
  }
}

// Property: projecting twice is the same as projecting once (idempotence).
TEST(Projections, Idempotent) {
  Rng rng(3);
  for (int trial = 0; trial < 100; ++trial) {
    const auto c = rng.normals(4, 0.0, 4.0);
    const auto once = project_halfspace_sum_ge(c, 1.5);
    const auto twice = project_halfspace_sum_ge(once, 1.5);
    for (std::size_t i = 0; i < once.size(); ++i) EXPECT_NEAR(once[i], twice[i], 1e-12);
  }
}

}  // namespace
}  // namespace edgeslice::opt
