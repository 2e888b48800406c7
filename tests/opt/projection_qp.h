// Iterative reference solver for the coordinator's quadratic program.
//
// Solves   min_z  ||c - z||^2   s.t.  sum(z) >= bound   (optionally z in a box)
// by projected gradient descent. It cross-validates the closed-form
// projection in opt/projection.h, standing in for the paper's CVXPY
// (DESIGN.md Sec. 1).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "opt/projection.h"

namespace edgeslice::opt {

struct QpConfig {
  double step_size = 0.2;
  std::size_t max_iterations = 2000;
  double tolerance = 1e-9;  // stop when the iterate moves less than this
  bool box_constrained = false;
  double box_lo = 0.0;
  double box_hi = 1.0;
};

struct QpResult {
  std::vector<double> z;
  std::size_t iterations = 0;
  bool converged = false;
  double objective = 0.0;  // ||c - z||^2 at the solution
};

/// Minimize ||c - z||^2 subject to sum(z) >= bound (+ optional box).
inline QpResult solve_projection_qp(const std::vector<double>& c, double bound,
                                    const QpConfig& config = {}) {
  if (c.empty()) throw std::invalid_argument("solve_projection_qp: empty input");
  // One projected-gradient projection: the half-space, then the box.
  const auto project = [&](const std::vector<double>& v, std::vector<double>& out) {
    project_halfspace_sum_ge_into(v, bound, out);
    if (config.box_constrained) {
      for (auto& x : out) x = std::clamp(x, config.box_lo, config.box_hi);
    }
  };
  QpResult result;
  // Feasible start: the half-space projection itself.
  project(c, result.z);
  std::vector<double> step(c.size());
  std::vector<double> next;
  for (std::size_t it = 0; it < config.max_iterations; ++it) {
    result.iterations = it + 1;
    // Gradient of ||c - z||^2 is 2 (z - c).
    for (std::size_t i = 0; i < step.size(); ++i) {
      step[i] = result.z[i] - config.step_size * 2.0 * (result.z[i] - c[i]);
    }
    project(step, next);
    double delta = 0.0;
    for (std::size_t i = 0; i < next.size(); ++i) {
      delta += (next[i] - result.z[i]) * (next[i] - result.z[i]);
    }
    result.z.swap(next);
    if (std::sqrt(delta) < config.tolerance) {
      result.converged = true;
      break;
    }
  }
  for (std::size_t i = 0; i < c.size(); ++i) {
    result.objective += (c[i] - result.z[i]) * (c[i] - result.z[i]);
  }
  return result;
}

}  // namespace edgeslice::opt
