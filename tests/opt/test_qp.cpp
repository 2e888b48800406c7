#include "projection_qp.h"

#include <gtest/gtest.h>

#include <numeric>

#include "common/rng.h"

namespace edgeslice::opt {
namespace {

// The iterative QP solver must agree with the closed-form projection —
// this cross-validation replaces the paper's CVXPY dependency.
TEST(Qp, MatchesClosedFormProjection) {
  Rng rng(1);
  for (int trial = 0; trial < 100; ++trial) {
    const auto c = rng.normals(3, -20.0, 30.0);
    const double bound = rng.uniform(-80.0, 20.0);
    std::vector<double> closed;
    project_halfspace_sum_ge_into(c, bound, closed);
    const auto iterative = solve_projection_qp(c, bound);
    EXPECT_TRUE(iterative.converged);
    for (std::size_t i = 0; i < c.size(); ++i) {
      EXPECT_NEAR(iterative.z[i], closed[i], 1e-5) << "trial " << trial;
    }
  }
}

TEST(Qp, FeasibleInputConvergesImmediately) {
  const auto result = solve_projection_qp({5.0, 5.0}, 3.0);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.objective, 0.0, 1e-9);
}

TEST(Qp, ObjectiveIsSquaredDistance) {
  const auto result = solve_projection_qp({0.0, 0.0}, 2.0);
  // Projection moves each coordinate by 1 -> distance^2 = 2.
  EXPECT_NEAR(result.objective, 2.0, 1e-6);
}

TEST(Qp, BoxConstrainedStaysInBox) {
  QpConfig config;
  config.box_constrained = true;
  config.box_lo = 0.0;
  config.box_hi = 1.0;
  const auto result = solve_projection_qp({-3.0, 5.0, 0.4}, 1.0, config);
  for (double v : result.z) {
    EXPECT_GE(v, -1e-9);
    EXPECT_LE(v, 1.0 + 1e-9);
  }
  const double total = std::accumulate(result.z.begin(), result.z.end(), 0.0);
  EXPECT_GE(total, 1.0 - 1e-6);
}

TEST(Qp, EmptyThrows) {
  EXPECT_THROW(solve_projection_qp({}, 0.0), std::invalid_argument);
}

TEST(Qp, ReportsIterationCount) {
  const auto result = solve_projection_qp({0.0, 0.0, 0.0}, 9.0);
  EXPECT_GE(result.iterations, 1u);
  EXPECT_LE(result.iterations, QpConfig{}.max_iterations);
}

}  // namespace
}  // namespace edgeslice::opt
