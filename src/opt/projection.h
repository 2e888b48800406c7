// The Euclidean projection used by the performance coordinator.
//
// Problem P2 in the paper (Eq. 11) decomposes per slice i into
//     min_z ||c - z||^2   s.t.  sum_j z_j >= b,
// whose solution is the projection of c onto a half-space — closed form.
// The coordinator uses this instead of a generic convex solver (the paper
// used CVXPY); tests/opt/projection_qp.h holds the iterative solver that
// cross-checks it.
#pragma once

#include <vector>

namespace edgeslice::opt {

/// Project c onto { z : sum(z) >= bound } into a caller-owned buffer
/// (resized to c.size()). If c already satisfies the constraint z = c;
/// otherwise the deficit is spread equally across coordinates (the
/// closed-form Euclidean projection). The coordinator's per-period solve
/// reuses one buffer and never allocates. `z` must not alias `c`.
void project_halfspace_sum_ge_into(const std::vector<double>& c, double bound,
                                   std::vector<double>& z);

}  // namespace edgeslice::opt
