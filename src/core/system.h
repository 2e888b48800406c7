// The EdgeSlice resource orchestration workflow (Alg. 1).
//
// Wires together the per-RA environments, their orchestration policies,
// the central performance coordinator, and the system monitor:
//
//   initialize Z, Y
//   repeat per period:
//     each RA (decentralized): run T intervals under the current policy
//     each RA posts its RC-M report onto the message bus
//     coordinator: z-update (P2) and y-update (Eq. 10) from delivered U
//     push fresh coordinating information (RC-L) through the bus
//   until convergence
//
// All coordinator <-> RA traffic flows through a MessageBus, which is
// behavior-neutral without faults and lossy/delaying under a FaultPlan.
// Degraded-mode semantics when messages or RAs fail:
//   - a silent RA's last delivered RC-M report is carried forward for up
//     to `max_report_staleness` periods, after which its z/y columns are
//     frozen (excluded from the masked coordinator update);
//   - an RA whose RC-L push is lost keeps acting on its last-known
//     coordination vector;
//   - a crashed RA serves nothing and reports nothing, and rejoins
//     cleanly when its outage ends — the first post-restart period posts
//     a fresh report and thaws its columns.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/fault.h"
#include "common/thread_pool.h"
#include "core/coordinator.h"
#include "core/message_bus.h"
#include "core/monitor.h"
#include "core/policies.h"
#include "core/ra_transport.h"
#include "env/environment.h"
#include "rl/batched_actor.h"

namespace edgeslice::obs {
class SlaWatchdog;
}  // namespace edgeslice::obs

namespace edgeslice::core {

/// Outcome of one period (T intervals in every RA + coordinator update).
struct PeriodResult {
  nn::Matrix performance_sums;                    // I x J: sum_t U
  double system_performance = 0.0;                // sum over everything
  std::vector<double> slice_performance;          // per slice, summed over t and j
  bool coordinator_converged = false;
  /// Degraded-mode accounting (all zero on a fault-free run).
  std::size_t crashed_ras = 0;          // RAs down this period
  std::size_t reports_fresh = 0;        // RC-M delivered for this period
  std::size_t reports_carried = 0;      // columns filled by carry-forward
  std::size_t columns_frozen = 0;       // RAs past the staleness cutoff
  std::size_t rcl_losses = 0;           // RC-L pushes lost this period
};

struct SystemConfig {
  bool use_coordinator = true;  // TARO runs without coordination
  /// Non-owning fault injector; null runs fault-free. The injector is
  /// queried per (period, RA), so one injector may be shared by systems.
  const FaultInjector* faults = nullptr;
  /// Carry-forward window: a silent RA's last report substitutes for up
  /// to this many periods of silence; beyond it the RA's z/y columns are
  /// frozen until a report arrives.
  std::size_t max_report_staleness = 3;
  /// Non-owning thread pool; null (or a 1-thread pool) runs the period
  /// loop sequentially. With workers, each RA's T intervals run on the
  /// worker that owns that RA — environments and policies are touched by
  /// exactly one thread — and the collected trajectories are reduced at
  /// the pre-existing message-bus barrier in the sequential (interval,
  /// RA) order, so results are bit-identical to a sequential run.
  /// Requirement: per-RA policies must not share *mutable* state across
  /// RAs (deployment policies — frozen actors with learn = false, TARO —
  /// qualify; a shared learning agent does not).
  ThreadPool* pool = nullptr;
  /// Non-owning SLA watchdog; null disables SLO evaluation. When set, the
  /// system feeds it the network-wide per-slice performance sums (the
  /// period's performance_sums, which equal the monitor's per-(ra, period)
  /// sums) at the end of each period. Observation-only: never feeds back
  /// into orchestration.
  obs::SlaWatchdog* watchdog = nullptr;
  /// Cross-agent batched inference (sequential in-process path only):
  /// per interval, the RAs whose policies report an inference_network()
  /// are grouped by shared network and decided with one multi-row forward
  /// pass per network instead of one per RA. Observation-neutral — per-row
  /// kernel determinism (nn/gemm.h) makes every batched action
  /// bit-identical to the per-RA decide() it replaces — and therefore,
  /// like `pool`, excluded from config_fingerprint(). The pooled path
  /// (whole-period-per-RA on dedicated workers) and the transport path
  /// (remote processes) have no cross-RA point to batch at.
  bool batched_inference = true;
  /// Non-owning remote execution plane (ipc::WorkerSupervisor); null runs
  /// the RAs in-process. With a transport, the system's environment and
  /// policy pointers are never stepped locally — periods are dispatched as
  /// directives, traces come back over the wire and are reduced in the
  /// same sequential (interval, RA) order, the RC-L leg rides the bus's
  /// transport routing, and checkpoints snapshot the remote environments.
  /// Trajectories are bit-identical to an in-process run for any worker
  /// count (see src/core/ra_transport.h for the contract). `pool` is
  /// ignored when a transport is set — parallelism is process-level.
  RaTransport* transport = nullptr;
};

class EdgeSliceSystem {
 public:
  /// `environments` and `policies` are per-RA and must have equal size,
  /// matching the coordinator's RA count. Non-owning monitor pointer may
  /// be null (a private monitor is created).
  EdgeSliceSystem(std::vector<env::RaEnvironment*> environments,
                  std::vector<RaPolicy*> policies, const CoordinatorConfig& coordinator,
                  SystemConfig config = {});

  /// Run one period of Alg. 1.
  PeriodResult run_period();

  /// run_period() into a caller-owned result whose matrix and vectors are
  /// refilled in place — a driver reusing one PeriodResult (the city-scale
  /// bench) keeps the steady-state control plane allocation-free. Results
  /// are bit-identical to run_period().
  void run_period_into(PeriodResult& result);

  /// Run `periods` periods; returns one result per period.
  std::vector<PeriodResult> run(std::size_t periods);

  PerformanceCoordinator& coordinator() { return coordinator_; }
  SystemMonitor& monitor() { return *monitor_; }
  const MessageBus& bus() const { return bus_; }
  /// The per-period scratch arena (crash masks, timing scratch). reset()
  /// at every period start; its stats().upstream_allocations must stay
  /// flat once the loop is warm — the city smoke test asserts exactly
  /// that, so transient buffers added to the period loop belong here.
  const MonotonicArena& period_arena() const { return period_arena_; }
  std::size_t ra_count() const { return environments_.size(); }
  std::size_t period_count() const { return period_; }

  /// Canonical text rendering of the system's shape (slices, RAs, period
  /// length, coordinator configuration) stored in checkpoint headers and
  /// compared on load, so a checkpoint can never restore into a
  /// differently-shaped system.
  std::string config_fingerprint() const;

  /// Write a full run-loop checkpoint — period/interval counters,
  /// carry-forward report state, coordinator Z/Y + ADMM monitor, in-flight
  /// bus envelopes, and every RA environment — as an ESCK container,
  /// atomically (tmp + rename). Taken at a period boundary, a restored
  /// system continues bit-identically to one that never stopped, including
  /// under an active FaultPlan (the stateless injector re-derives the same
  /// faults from the restored period counter). NOT serialized: the
  /// SystemMonitor and SLA watchdog (observation-only — post-resume
  /// accounting starts at the resume period) and the policies (deployment
  /// policies — frozen actors, TARO — hold no cross-period state; a
  /// learning policy's agent must be checkpointed separately).
  /// Returns false on I/O failure.
  bool save_checkpoint(const std::string& path) const;
  /// Restore from `path`. The stored fingerprint must equal
  /// config_fingerprint(); throws std::runtime_error on mismatch or
  /// corruption.
  void load_checkpoint(const std::string& path);

 private:
  std::vector<env::RaEnvironment*> environments_;
  std::vector<RaPolicy*> policies_;
  PerformanceCoordinator coordinator_;
  SystemConfig config_;
  std::unique_ptr<SystemMonitor> monitor_;
  MessageBus bus_;
  std::size_t period_ = 0;
  std::size_t interval_ = 0;
  /// Last delivered RC-M values per RA, for carry-forward.
  std::vector<std::vector<double>> last_report_;
  std::vector<std::size_t> last_report_period_;
  std::vector<bool> has_report_;

  /// --- Steady-state scratch (never read across periods) --------------------
  MonotonicArena period_arena_;
  /// Cached cross-agent batched-inference groups (sequential path), keyed
  /// by shared network. The BatchedActor and member lists persist across
  /// periods — membership is rebuilt each period (crashes change it), the
  /// buffers are not.
  struct InferenceGroup {
    rl::BatchedActor actor;
    std::vector<std::size_t> members;  // RA indices, ascending
  };
  /// Per-RA whole-period trajectory buffers for the pooled path.
  struct RaTrace {
    std::vector<env::StepResult> steps;
    std::vector<std::vector<double>> actions;
  };
  std::vector<InferenceGroup> groups_;
  std::vector<std::pair<std::size_t, std::size_t>> slot_;
  std::vector<RaTrace> traces_;
  std::vector<double> state_scratch_;
  std::vector<double> action_scratch_;
  env::StepResult step_scratch_;
  nn::Matrix u_scratch_;
  std::vector<bool> active_scratch_;
  RcMonitoringMessage report_scratch_;
  std::vector<RcmEnvelope> envelope_scratch_;
  RcLearningMessage rcl_scratch_;
  std::vector<double> slice_sums_scratch_;
  // Per-slice argmin-contribution RA of the period (watchdog attribution).
  std::vector<double> slice_min_scratch_;
  std::vector<std::size_t> slice_worst_ra_scratch_;
};

}  // namespace edgeslice::core
