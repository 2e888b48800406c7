// Supervisor-side fleet telemetry aggregation (DESIGN.md "Fleet
// telemetry").
//
// Each worker process periodically ships its observability state over the
// ESFR channel: a full cumulative MetricsSnapshot, the per-(path, period)
// span-aggregate deltas since its last export, and its freshly recorded
// flight-recorder events. The TelemetryAggregator folds those into the
// supervisor's process-global registry / tracer / event log so the
// existing exposition surfaces (/metrics, /spans.json, /events.json, the
// rolling snapshot writer) show the whole fleet:
//
//  * metrics land under a worker="<slot>" label — every worker's series
//    stays distinguishable, and the supervisor's own unlabeled series are
//    untouched;
//  * snapshots are cumulative and therefore idempotent: re-merging the
//    same snapshot republishes the same values. A respawned worker
//    restarts its registry from zero, so the aggregator keeps a per-slot
//    *base* (the final state of every dead incarnation, folded on
//    on_worker_lost) and publishes base (+) current;
//  * span deltas merge into the global tracer per (path, period) — a
//    fleet-wide aggregate view (Tracer has no label dimension);
//  * events import verbatim (origin timestamps preserved) tagged with the
//    origin slot in Event::worker.
//
// Everything here is observation-only and runs on the supervisor's pump
// thread; none of it touches the deterministic orchestration path, so
// trajectory digests are bit-identical with aggregation on or off.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/trace_span.h"
#include "obs/event_log.h"

namespace edgeslice::obs {

class TelemetryAggregator {
 public:
  /// Size (or resize) the per-slot state, dropping everything held.
  void reset(std::size_t slots);

  /// Merge one worker's cumulative metrics snapshot: every series is
  /// republished into the global registry under a worker="<slot>" label,
  /// with the slot's dead-incarnation base folded in (counters add,
  /// gauges last-wins, histograms merge bucket-wise).
  void on_metrics(std::size_t slot, const MetricsSnapshot& snapshot);

  /// Merge shipped span-aggregate deltas into the global tracer.
  void on_spans(std::size_t slot, const std::vector<SpanPeriodStats>& deltas);

  /// Import drained worker events into the global event log, tagged with
  /// the origin slot.
  void on_events(std::size_t slot, const std::vector<Event>& events);

  /// The slot's worker died: fold its last cumulative snapshot into the
  /// slot base so the respawned incarnation's from-zero counts stack on
  /// top. An unclean death (no final flush arrived) additionally records
  /// a TelemetryGap event marking the hole in the slot's event window.
  void on_worker_lost(std::size_t slot, bool clean);

  /// Telemetry bookkeeping for /fleet.json.
  std::uint64_t snapshots_merged(std::size_t slot) const;
  std::uint64_t events_imported(std::size_t slot) const;
  /// Steady-clock seconds of the slot's most recent snapshot merge, or a
  /// negative value when none has arrived yet.
  double last_snapshot_ts_s(std::size_t slot) const;

 private:
  struct SlotState {
    /// Folded final values of dead incarnations, keyed by display name.
    std::map<std::string, std::uint64_t> counter_base;
    std::map<std::string, HistogramState> histogram_base;
    /// Most recent cumulative snapshot of the live incarnation.
    MetricsSnapshot last;
    std::uint64_t snapshots = 0;
    std::uint64_t events = 0;
    double last_snapshot_ts_s = -1.0;
  };

  /// Publish base (+) cumulative for one slot (mutex_ held).
  void publish(std::size_t slot);

  mutable std::mutex mutex_;
  std::vector<SlotState> slots_;
};

/// One row of /fleet.json, composed by the supervisor (which owns
/// liveness, pids, restart counts, and the RA assignment) from its own
/// state plus the aggregator's bookkeeping.
struct FleetWorkerStatus {
  std::size_t slot = 0;
  bool alive = false;
  long pid = -1;
  std::uint64_t restarts = 0;
  std::vector<std::size_t> ras;
  std::uint64_t snapshots = 0;
  std::uint64_t events = 0;
  /// Steady-clock seconds of the last merged snapshot (<0: never); the
  /// JSON renderer converts this to an age at request time.
  double last_snapshot_ts_s = -1.0;
};

/// Publish the fleet table the telemetry server serves as /fleet.json.
/// Thread-safe; an empty vector (the default) renders as a no-worker
/// fleet.
void set_fleet_status(std::vector<FleetWorkerStatus> workers);

/// Render /fleet.json: {"total": N, "alive": M, "workers": [...]} with
/// per-worker last_snapshot_age_s computed against the current clock
/// (null when no snapshot ever arrived).
std::string fleet_status_json();

}  // namespace edgeslice::obs
