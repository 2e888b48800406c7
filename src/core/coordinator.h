// The central performance coordinator (Sec. IV-A).
//
// Solves the ADMM z-update (problem P2, Eq. 11) and the scaled dual
// update (Eq. 10) from the per-period slice performance collected from
// the orchestration agents, and emits the coordinating information
// c_{i,j} = z_{i,j} - y_{i,j} consumed by the agents' DRL state (Eq. 13).
//
// P2 separates per slice i: project the vector (U_i + y_i) onto the
// half-space sum_j z_{i,j} >= U_i^min — a closed-form Euclidean
// projection (see opt/projection.h; cross-validated against the iterative
// QP solver, replacing the paper's CVXPY).
#pragma once

#include <iosfwd>
#include <vector>

#include "nn/matrix.h"
#include "opt/admm.h"
#include "core/interfaces.h"

namespace edgeslice::core {

struct CoordinatorConfig {
  std::size_t slices = 2;
  std::size_t ras = 2;
  double rho = 1.0;                  // ADMM penalty (Sec. VII)
  std::vector<double> u_min;         // per-slice SLA (Eq. 2); default -50 each
  opt::AdmmStopCriteria stopping;
};

class PerformanceCoordinator {
 public:
  explicit PerformanceCoordinator(const CoordinatorConfig& config);

  /// One coordinator iteration: consume per-(slice, RA) performance sums
  /// (sum over t in T of U_{i,j}) and refresh Z and Y. The matrix must be
  /// exactly slices x ras with finite entries.
  void update(const nn::Matrix& performance_sums);

  /// Degraded-mode iteration: RAs with active[j] == false are *frozen* —
  /// their z/y columns are left untouched and excluded from the per-slice
  /// projection, whose SLA bound is tightened by the frozen columns' last
  /// z. Used when an RA has been silent past the staleness cutoff. With an
  /// all-true mask this is exactly update(performance_sums).
  void update(const nn::Matrix& performance_sums, const std::vector<bool>& active);

  /// Coordinating information for RA j (z - y per slice), as an RC-L
  /// message written into a caller-owned one (vector resized in place) —
  /// the per-period RC-L push loop reuses one message.
  void coordination_for_into(std::size_t ra, RcLearningMessage& msg) const;

  double z(std::size_t slice, std::size_t ra) const;
  double y(std::size_t slice, std::size_t ra) const;

  /// Whether the SLA half-space constraint currently holds for each slice.
  bool sla_satisfied(std::size_t slice) const;

  bool converged() const { return monitor_.converged(); }
  std::size_t iterations() const { return monitor_.iterations(); }
  const opt::AdmmMonitor& monitor() const { return monitor_; }
  const CoordinatorConfig& config() const { return config_; }

  /// Serialize the ADMM iterate — Z, Y, and the monitor's iteration
  /// count, sticky convergence flag, and residual history — as the
  /// "coordinator blob" of FORMATS.md. Configuration (rho, u_min,
  /// stopping criteria) is not serialized; it is re-derived from the
  /// experiment config and the blob's shape is validated against it.
  void save_state(std::ostream& out) const;
  /// Restore into this coordinator. Throws std::runtime_error on a shape
  /// mismatch or corruption without partially applying state.
  void load_state(std::istream& in);

 private:
  std::size_t index(std::size_t slice, std::size_t ra) const;

  CoordinatorConfig config_;
  std::vector<double> z_;  // slice-major: z_[i * ras + j]
  std::vector<double> y_;
  opt::AdmmMonitor monitor_;
  /// Per-update scratch, reused across periods so the steady-state solve
  /// allocates nothing. Never read across calls.
  std::vector<double> scratch_z_old_;
  std::vector<double> scratch_c_;
  std::vector<double> scratch_zi_;
  std::vector<double> scratch_u_;
  std::vector<std::size_t> scratch_live_;
  std::vector<double> scratch_z_live_;
  std::vector<double> scratch_z_old_live_;
  std::vector<double> scratch_y_live_;
};

}  // namespace edgeslice::core
