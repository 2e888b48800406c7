// The control-plane message plane for the RC-L / RC-M interfaces.
//
// The paper's decentralization claim (Sec. V-D) rests on the coordinator
// and the RAs exchanging only two small messages per period. Making that
// exchange an explicit, lossy channel — instead of direct function calls —
// lets the reproduction test the claim under failure: reports can be
// dropped or delayed, coordination pushes can be lost, and every message
// carries a sequence number so receivers detect gaps and reordering.
//
// With no FaultInjector (or an empty plan) the bus is behavior-neutral:
// every message is delivered unmodified in the period it was sent.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "common/fault.h"
#include "core/interfaces.h"
#include "core/ra_transport.h"

namespace edgeslice::core {

/// An RC-M report in flight, stamped by the bus.
struct RcmEnvelope {
  std::uint64_t seq = 0;          // global send order
  std::size_t sent_period = 0;    // period whose performance it reports
  std::size_t deliver_period = 0; // earliest period the coordinator sees it
  RcMonitoringMessage message;
};

/// Delivery counters for diagnostics and the chaos benches.
struct MessageBusStats {
  std::uint64_t rcm_sent = 0;
  std::uint64_t rcm_dropped = 0;
  std::uint64_t rcm_delayed = 0;
  std::uint64_t rcm_delivered = 0;
  std::uint64_t rcl_sent = 0;
  std::uint64_t rcl_dropped = 0;
};

class MessageBus {
 public:
  /// `faults` is non-owning and may be null (lossless bus).
  explicit MessageBus(const FaultInjector* faults = nullptr);

  /// RA -> coordinator: submit the RC-M report for `period`. Dropped
  /// reports vanish; delayed reports surface in a later collect. The
  /// message is copied into a pooled envelope (see recycle()), so a
  /// steady-state caller reusing one message buffer posts without
  /// allocating.
  void post_report(std::size_t period, const RcMonitoringMessage& message);

  /// Coordinator side: drain every report deliverable at `period`
  /// (in-flight envelopes with deliver_period <= period) into a
  /// caller-owned buffer (cleared first), ordered by (deliver_period, seq)
  /// — i.e. delayed duplicates of a newer report sort before it only if
  /// they were due earlier. Pair with recycle() to run the report plane
  /// allocation-free once warm.
  void collect_reports_into(std::size_t period, std::vector<RcmEnvelope>& due);

  /// Return drained envelopes to the internal free pool so their vector
  /// capacity is reused by future post_report() calls. Clears `envelopes`.
  void recycle(std::vector<RcmEnvelope>& envelopes);

  /// Coordinator -> RA: push an RC-L message after `period`'s update.
  /// Returns false when delivery failed (the agent must fall back to its
  /// last-known coordination vector). With a transport attached, a push
  /// that survives the fault check is additionally shipped over the wire
  /// to the RA's worker; a send failure (worker down, deadline) reports
  /// as undelivered exactly like a fault-dropped push.
  bool deliver_coordination(std::size_t period, const RcLearningMessage& message);

  /// Route the RC-L leg through a remote execution plane (non-owning; null
  /// restores in-process delivery). The RC-M leg needs no counterpart
  /// here: reports enter the bus coordinator-side after the transport's
  /// trace collection, so drop/delay bookkeeping is identical either way.
  void set_transport(RaTransport* transport) { transport_ = transport; }

  std::size_t in_flight() const { return pending_.size(); }
  const MessageBusStats& stats() const { return stats_; }

  /// Serialize the in-flight envelopes, the sequence counter, and the
  /// delivery stats as the "message bus blob" of FORMATS.md. The fault
  /// injector is NOT serialized — it is stateless (decisions are pure
  /// functions of plan seed, period, and RA), so a resumed run under the
  /// same FaultPlan replays the identical loss/delay pattern.
  void save_state(std::ostream& out) const;
  /// Restore into this bus. Throws std::runtime_error on corruption
  /// without partially applying state.
  void load_state(std::istream& in);

 private:
  const FaultInjector* faults_;
  RaTransport* transport_ = nullptr;
  std::vector<RcmEnvelope> pending_;
  /// Spare envelopes with warmed vector capacity (not serialized — a pure
  /// allocation cache; contents are dead).
  std::vector<RcmEnvelope> free_;
  std::uint64_t next_seq_ = 0;
  MessageBusStats stats_;
};

}  // namespace edgeslice::core
