// Flight recorder: a fixed-capacity, lock-light ring buffer of structured
// control-plane events.
//
// Every noteworthy control-plane happening — a dropped RC-M report, a
// frozen coordinator column, an injected fault, an SLA violation, a
// validation checkpoint — is appended as one small fixed-size Event. The
// ring keeps the most recent `capacity` events forever, so when something
// goes wrong (a crash under the chaos harness, a stalled training run)
// the *window of events leading up to it* is recoverable: on demand as
// JSONL, automatically from a std::terminate / fatal-signal handler, and
// over HTTP via the telemetry server.
//
// Concurrency: writers are lock-free (one fetch_add to claim a ticket,
// per-slot seqlock publication; a writer waits only when it laps another
// writer still publishing the same slot). Readers take a consistent
// snapshot without blocking writers: torn slots are detected by the slot
// sequence and skipped. All slot fields are atomics accessed relaxed
// between the seqlock fences, so the protocol is data-race-free (clean
// under TSan by construction, not by suppression).
//
// Recording honours the global metrics switch (common/metrics.h): with
// metrics disabled an append neither reads the clock nor touches the
// ring, so orchestration results are bit-identical with the recorder on
// or off.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <memory>
#include <string>
#include <vector>

namespace edgeslice::obs {

/// What happened. Names (event_kind_name) are the JSONL/HTTP vocabulary.
enum class EventKind : std::uint8_t {
  RcmDropped,        // bus: RC-M report lost in transit
  RcmDelayed,        // bus: RC-M report held back (value = delay periods)
  RcmDelivered,      // bus: RC-M report reached the coordinator (value = latency)
  RclDropped,        // bus: RC-L push to an RA lost
  CoordinatorReject, // coordinator refused an update (value = RejectCause)
  ColumnsFrozen,     // masked update ran with frozen columns (value = count)
  FaultRaCrash,      // injector: RA down this period
  FaultCqiBlackout,  // injector: radio link collapsed
  FaultLinkFailure,  // injector: transport path down
  FaultComputeSlowdown,  // injector: GPU degraded (value = slowdown factor)
  ValidationCheckpoint,  // training: policy validated (interval = step, value = score)
  SlaViolation,      // watchdog: slice below its SLO (value = shortfall)
  CheckpointSaved,   // ckpt: container written to disk (value = bytes)
  CheckpointLoaded,  // ckpt: container restored from disk (value = bytes)
  WorkerSpawn,       // supervisor: worker process forked (ra = worker index, value = pid)
  WorkerExit,        // supervisor: worker died unexpectedly (ra = worker index)
  WorkerKill,        // supervisor: worker SIGKILLed (ra = worker index)
  WorkerHung,        // supervisor: worker missed a trace/io deadline (ra = worker index)
  WorkerRestore,     // supervisor: RA state restored into a fresh worker (ra = RA index)
  TelemetryGap,      // aggregator: a worker died with possibly-unflushed
                     // telemetry — its event window has a hole here
                     // (worker = slot, value = snapshots merged before the gap)
};

/// The highest EventKind code. Codes are append-only; decoders reject any
/// byte above this one.
inline constexpr EventKind kLastEventKind = EventKind::TelemetryGap;

/// Stable numeric codes for CoordinatorReject's `value` field, mirroring
/// the coordinator.reject.<cause> counter names.
enum class RejectCause : std::uint8_t {
  Shape = 0,
  NonFinite = 1,
  MaskSize = 2,
};

const char* event_kind_name(EventKind kind);

/// One flight-recorder entry. Fields the writer does not know are left at
/// kNone and exported as JSON null.
struct Event {
  static constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

  std::uint64_t seq = 0;   // assigned by the log: global append order
  double ts_s = 0.0;       // assigned by the log: steady-clock seconds
  std::size_t period = kNone;
  std::size_t interval = kNone;
  std::size_t ra = kNone;
  std::size_t slice = kNone;
  /// Origin worker slot once the supervisor imports a worker's drained
  /// events (kNone for events recorded in this process). steady_clock's
  /// epoch is shared across fork, so imported ts_s values stay comparable.
  std::size_t worker = kNone;
  EventKind kind = EventKind::RcmDropped;
  double value = 0.0;
};

class EventLog {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  explicit EventLog(std::size_t capacity = kDefaultCapacity);

  std::size_t capacity() const { return capacity_; }

  /// The period label record() stamps onto events whose writer left
  /// `period` at kNone (the coordinator and the trainer do not know the
  /// running period; the system sets this alongside the tracer's).
  void set_period(std::size_t period);
  std::size_t current_period() const;

  /// Append one event. seq and ts_s are assigned here; a kNone period is
  /// replaced by current_period(). No-op with metrics disabled.
  void record(Event e);

  /// Append an event shipped from another process: ts_s, period, and
  /// worker are preserved verbatim (the origin already stamped them); only
  /// seq is reassigned into this log's order. No-op with metrics disabled.
  void record_imported(Event e);

  /// Total events ever recorded (including those the ring has dropped).
  std::uint64_t recorded() const;

  /// Consistent copy of the retained window, oldest first. Slots a lapping
  /// writer is mid-publication on are skipped, never torn.
  std::vector<Event> snapshot() const;

  /// snapshot() filtered to events with seq >= min_seq (the telemetry
  /// shipper's drain cursor).
  std::vector<Event> snapshot_since(std::uint64_t min_seq) const;

  /// Non-allocating snapshot into a caller-owned buffer (crash-flush
  /// paths): copies up to `cap` retained events, oldest first, skipping
  /// unpublished slots. Returns the number copied. Unlike snapshot(), a
  /// torn slot may surface with stale fields — crash context beats
  /// strictness, exactly like dump_fd.
  std::size_t copy_events(Event* out, std::size_t cap) const;

  /// snapshot() as JSON Lines, one event object per line.
  void write_jsonl(std::ostream& out) const;
  /// snapshot() as one JSON array (the /events.json HTTP payload).
  void write_json_array(std::ostream& out) const;

  /// Best-effort raw dump to a file descriptor for crash paths: no
  /// allocation, no iostreams — snprintf into a stack buffer and write(2)
  /// per event. Unpublished slots are skipped; a torn slot may surface
  /// with stale fields (crash context beats strictness). Returns the
  /// number of events written.
  int dump_fd(int fd) const;

  /// Drop every retained event (seq numbering continues). Tests only;
  /// not safe against concurrent writers.
  void clear();

 private:
  /// Seqlock slot. `state` counts 2*generation while idle/published and
  /// 2*generation+1 while a writer is publishing generation `generation`;
  /// the payload fields are plain atomics accessed relaxed between the
  /// seqlock fences.
  struct Slot {
    std::atomic<std::uint64_t> state{0};
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> ts_bits{0};  // bit_cast of the double
    std::atomic<std::size_t> period{Event::kNone};
    std::atomic<std::size_t> interval{Event::kNone};
    std::atomic<std::size_t> ra{Event::kNone};
    std::atomic<std::size_t> slice{Event::kNone};
    std::atomic<std::size_t> worker{Event::kNone};
    std::atomic<std::uint8_t> kind{0};
    std::atomic<std::uint64_t> value_bits{0};
  };

  /// Shared append body of record()/record_imported(): claim a ticket,
  /// publish `e` (whose seq is assigned here) under the slot seqlock.
  void publish(Event e);

  /// Read slot payload relaxed into `out` (no validity check).
  static void load_slot(const Slot& slot, Event& out);

  std::size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> next_{0};
  std::atomic<std::size_t> period_{Event::kNone};
};

/// The process-global flight recorder the control plane records into.
EventLog& global_event_log();

/// Replace the process-global log with a fresh (empty) one; the old
/// object is leaked deliberately. Call from a freshly forked,
/// single-threaded child only — a worker process must not publish the
/// supervisor's inherited ring back as its own telemetry.
void reset_global_event_log_for_fork();

/// Install (or, with an empty path, remove) a std::terminate handler and
/// fatal-signal handlers (SIGABRT, SIGSEGV, SIGBUS, SIGFPE, SIGILL) that
/// dump the global event log as JSONL to `path` before the process dies.
/// The path is copied into static storage; the handlers allocate nothing.
void set_crash_dump_path(const std::string& path);

/// Register a hook the terminate/fatal-signal handlers run before the
/// JSONL dump — the worker telemetry plane flushes its event window to
/// the supervisor here. The hook must be async-signal-safe (no locks, no
/// allocation). nullptr removes it. Installing a hook installs the
/// handlers even when no crash-dump path is configured.
void set_crash_flush_hook(void (*hook)());

}  // namespace edgeslice::obs
