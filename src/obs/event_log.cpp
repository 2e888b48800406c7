#include "obs/event_log.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <ostream>

#include "common/json.h"
#include "common/metrics.h"

namespace edgeslice::obs {

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::RcmDropped: return "rcm.dropped";
    case EventKind::RcmDelayed: return "rcm.delayed";
    case EventKind::RcmDelivered: return "rcm.delivered";
    case EventKind::RclDropped: return "rcl.dropped";
    case EventKind::CoordinatorReject: return "coordinator.reject";
    case EventKind::ColumnsFrozen: return "coordinator.columns_frozen";
    case EventKind::FaultRaCrash: return "fault.ra_crash";
    case EventKind::FaultCqiBlackout: return "fault.cqi_blackout";
    case EventKind::FaultLinkFailure: return "fault.link_failure";
    case EventKind::FaultComputeSlowdown: return "fault.compute_slowdown";
    case EventKind::ValidationCheckpoint: return "train.validation";
    case EventKind::SlaViolation: return "sla.violation";
    case EventKind::CheckpointSaved: return "ckpt.saved";
    case EventKind::CheckpointLoaded: return "ckpt.loaded";
    case EventKind::WorkerSpawn: return "worker.spawn";
    case EventKind::WorkerExit: return "worker.exit";
    case EventKind::WorkerKill: return "worker.kill";
    case EventKind::WorkerHung: return "worker.hung";
    case EventKind::WorkerRestore: return "worker.restore";
    case EventKind::TelemetryGap: return "telemetry.gap";
  }
  return "?";
}

EventLog::EventLog(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      slots_(std::make_unique<Slot[]>(capacity_)) {}

void EventLog::set_period(std::size_t period) {
  period_.store(period, std::memory_order_relaxed);
}

std::size_t EventLog::current_period() const {
  return period_.load(std::memory_order_relaxed);
}

void EventLog::record(Event e) {
  if (!metrics_enabled()) return;
  e.ts_s = now_seconds();
  if (e.period == Event::kNone) e.period = current_period();
  publish(e);
}

void EventLog::record_imported(Event e) {
  if (!metrics_enabled()) return;
  // ts_s / period / worker arrive stamped by the origin process.
  publish(e);
}

void EventLog::publish(Event e) {
  const std::uint64_t ticket = next_.fetch_add(1, std::memory_order_relaxed);
  e.seq = ticket;
  const std::uint64_t generation = ticket / capacity_;
  Slot& slot = slots_[ticket % capacity_];

  // Claim the slot: published state of the previous generation is 2g, the
  // in-progress state of ours is 2g + 1. A writer lapped mid-publication
  // holds the slot at 2g - 1; spin until it publishes.
  std::uint64_t expected = 2 * generation;
  while (!slot.state.compare_exchange_weak(expected, 2 * generation + 1,
                                           std::memory_order_acquire,
                                           std::memory_order_relaxed)) {
    expected = 2 * generation;
  }
  std::atomic_thread_fence(std::memory_order_release);
  slot.seq.store(e.seq, std::memory_order_relaxed);
  slot.ts_bits.store(std::bit_cast<std::uint64_t>(e.ts_s), std::memory_order_relaxed);
  slot.period.store(e.period, std::memory_order_relaxed);
  slot.interval.store(e.interval, std::memory_order_relaxed);
  slot.ra.store(e.ra, std::memory_order_relaxed);
  slot.slice.store(e.slice, std::memory_order_relaxed);
  slot.worker.store(e.worker, std::memory_order_relaxed);
  slot.kind.store(static_cast<std::uint8_t>(e.kind), std::memory_order_relaxed);
  slot.value_bits.store(std::bit_cast<std::uint64_t>(e.value), std::memory_order_relaxed);
  slot.state.store(2 * generation + 2, std::memory_order_release);
}

std::uint64_t EventLog::recorded() const {
  return next_.load(std::memory_order_relaxed);
}

void EventLog::load_slot(const Slot& slot, Event& out) {
  out.seq = slot.seq.load(std::memory_order_relaxed);
  out.ts_s = std::bit_cast<double>(slot.ts_bits.load(std::memory_order_relaxed));
  out.period = slot.period.load(std::memory_order_relaxed);
  out.interval = slot.interval.load(std::memory_order_relaxed);
  out.ra = slot.ra.load(std::memory_order_relaxed);
  out.slice = slot.slice.load(std::memory_order_relaxed);
  out.worker = slot.worker.load(std::memory_order_relaxed);
  out.kind = static_cast<EventKind>(slot.kind.load(std::memory_order_relaxed));
  out.value = std::bit_cast<double>(slot.value_bits.load(std::memory_order_relaxed));
}

std::vector<Event> EventLog::snapshot() const {
  std::vector<Event> out;
  const std::uint64_t end = next_.load(std::memory_order_acquire);
  const std::uint64_t begin = end > capacity_ ? end - capacity_ : 0;
  out.reserve(static_cast<std::size_t>(end - begin));
  for (std::uint64_t ticket = begin; ticket < end; ++ticket) {
    const std::uint64_t published = 2 * (ticket / capacity_) + 2;
    const Slot& slot = slots_[ticket % capacity_];
    // Seqlock read: valid iff the state is `published` both before and
    // after the payload copy (the acquire fence orders the relaxed loads
    // before the revalidation). A slot still being published, or already
    // overwritten by a lapping writer, fails the check and is skipped.
    Event event;
    bool valid = false;
    for (int attempt = 0; attempt < 4 && !valid; ++attempt) {
      if (slot.state.load(std::memory_order_acquire) != published) break;
      load_slot(slot, event);
      std::atomic_thread_fence(std::memory_order_acquire);
      valid = slot.state.load(std::memory_order_relaxed) == published;
    }
    if (valid) out.push_back(event);
  }
  return out;
}

std::vector<Event> EventLog::snapshot_since(std::uint64_t min_seq) const {
  std::vector<Event> out = snapshot();
  out.erase(std::remove_if(out.begin(), out.end(),
                           [min_seq](const Event& e) { return e.seq < min_seq; }),
            out.end());
  return out;
}

std::size_t EventLog::copy_events(Event* out, std::size_t cap) const {
  std::size_t copied = 0;
  const std::uint64_t end = next_.load(std::memory_order_acquire);
  const std::uint64_t begin = end > capacity_ ? end - capacity_ : 0;
  for (std::uint64_t ticket = begin; ticket < end && copied < cap; ++ticket) {
    const Slot& slot = slots_[ticket % capacity_];
    // Skip slots a writer had claimed but not published when we crashed.
    if (slot.state.load(std::memory_order_acquire) % 2 != 0) continue;
    load_slot(slot, out[copied]);
    ++copied;
  }
  return copied;
}

namespace {

void write_event_json(std::ostream& out, const Event& e) {
  const auto field = [&out](const char* name, std::size_t v, bool comma = true) {
    out << '"' << name << "\": ";
    if (v == Event::kNone) {
      out << "null";
    } else {
      out << v;
    }
    if (comma) out << ", ";
  };
  out << "{\"seq\": " << e.seq << ", \"ts_s\": " << e.ts_s << ", ";
  field("period", e.period);
  field("interval", e.interval);
  field("ra", e.ra);
  field("slice", e.slice);
  field("worker", e.worker);
  out << "\"kind\": ";
  write_json_escaped(out, event_kind_name(e.kind));
  out << ", \"value\": " << e.value << "}";
}

}  // namespace

void EventLog::write_jsonl(std::ostream& out) const {
  for (const Event& e : snapshot()) {
    write_event_json(out, e);
    out << "\n";
  }
}

void EventLog::write_json_array(std::ostream& out) const {
  out << "[";
  bool first = true;
  for (const Event& e : snapshot()) {
    out << (first ? "\n" : ",\n");
    write_event_json(out, e);
    first = false;
  }
  out << (first ? "]" : "\n]");
}

namespace {

/// snprintf one size_t-or-null field into `buf + off`.
int format_field(char* buf, std::size_t size, int off, const char* name,
                 std::size_t v, const char* suffix) {
  if (v == Event::kNone) {
    return std::snprintf(buf + off, size - static_cast<std::size_t>(off),
                         "\"%s\": null%s", name, suffix);
  }
  return std::snprintf(buf + off, size - static_cast<std::size_t>(off),
                       "\"%s\": %llu%s", name,
                       static_cast<unsigned long long>(v), suffix);
}

}  // namespace

int EventLog::dump_fd(int fd) const {
  int written = 0;
  const std::uint64_t end = next_.load(std::memory_order_acquire);
  const std::uint64_t begin = end > capacity_ ? end - capacity_ : 0;
  for (std::uint64_t ticket = begin; ticket < end; ++ticket) {
    const Slot& slot = slots_[ticket % capacity_];
    // Skip slots a writer had claimed but not published when we crashed.
    if (slot.state.load(std::memory_order_acquire) % 2 != 0) continue;
    Event e;
    load_slot(slot, e);
    char buf[512];
    int off = std::snprintf(buf, sizeof(buf), "{\"seq\": %llu, \"ts_s\": %.6f, ",
                            static_cast<unsigned long long>(e.seq), e.ts_s);
    off += format_field(buf, sizeof(buf), off, "period", e.period, ", ");
    off += format_field(buf, sizeof(buf), off, "interval", e.interval, ", ");
    off += format_field(buf, sizeof(buf), off, "ra", e.ra, ", ");
    off += format_field(buf, sizeof(buf), off, "slice", e.slice, ", ");
    off += format_field(buf, sizeof(buf), off, "worker", e.worker, ", ");
    off += std::snprintf(buf + off, sizeof(buf) - static_cast<std::size_t>(off),
                         "\"kind\": \"%s\", \"value\": %g}\n",
                         event_kind_name(e.kind), e.value);
    if (off <= 0 || static_cast<std::size_t>(off) >= sizeof(buf)) continue;
    ssize_t n = ::write(fd, buf, static_cast<std::size_t>(off));
    (void)n;
    ++written;
  }
  return written;
}

void EventLog::clear() {
  const std::size_t cap = capacity_;
  slots_ = std::make_unique<Slot[]>(cap);
  next_.store(0, std::memory_order_relaxed);
}

namespace {

/// Set by reset_global_event_log_for_fork() in forked children; wins over
/// the lazily constructed parent log.
std::atomic<EventLog*> g_event_log_override{nullptr};

}  // namespace

EventLog& global_event_log() {
  if (EventLog* fresh = g_event_log_override.load(std::memory_order_acquire))
    return *fresh;
  static EventLog log;
  return log;
}

void reset_global_event_log_for_fork() {
  // Leak on purpose: inherited readers may still hold references.
  g_event_log_override.store(new EventLog, std::memory_order_release);
}

// --- Crash dump ------------------------------------------------------------

namespace {

/// Fixed storage: signal handlers must not allocate.
char g_crash_dump_path[1024] = {0};
std::atomic<void (*)()> g_crash_flush_hook{nullptr};
std::terminate_handler g_previous_terminate = nullptr;
bool g_handlers_installed = false;

/// Best-effort crash sequence: the flush hook first (a dying worker ships
/// its event window to the supervisor while the socket may still be
/// open), then the JSONL dump to the configured path.
void crash_dump() {
  if (void (*hook)() = g_crash_flush_hook.load(std::memory_order_acquire)) hook();
  if (g_crash_dump_path[0] == '\0') return;
  const int fd = ::open(g_crash_dump_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;
  global_event_log().dump_fd(fd);
  ::close(fd);
}

[[noreturn]] void terminate_with_dump() {
  crash_dump();
  if (g_previous_terminate != nullptr && g_previous_terminate != terminate_with_dump) {
    g_previous_terminate();
  }
  std::abort();
}

void fatal_signal_handler(int signum) {
  crash_dump();
  // Restore the default disposition and re-raise so the process still dies
  // with the original signal (exit status preserved for wait()ing parents).
  ::signal(signum, SIG_DFL);
  ::raise(signum);
}

constexpr int kFatalSignals[] = {SIGABRT, SIGSEGV, SIGBUS, SIGFPE, SIGILL};

void install_crash_handlers() {
  if (g_handlers_installed) return;
  g_previous_terminate = std::set_terminate(terminate_with_dump);
  for (int s : kFatalSignals) {
    struct sigaction action;
    std::memset(&action, 0, sizeof(action));
    action.sa_handler = fatal_signal_handler;
    sigemptyset(&action.sa_mask);
    ::sigaction(s, &action, nullptr);
  }
  g_handlers_installed = true;
}

void remove_crash_handlers_if_idle() {
  // Keep the handlers while either consumer (dump path / flush hook) is
  // configured.
  if (!g_handlers_installed) return;
  if (g_crash_dump_path[0] != '\0') return;
  if (g_crash_flush_hook.load(std::memory_order_acquire) != nullptr) return;
  for (int s : kFatalSignals) ::signal(s, SIG_DFL);
  std::set_terminate(g_previous_terminate);
  g_handlers_installed = false;
}

}  // namespace

void set_crash_dump_path(const std::string& path) {
  // Touch the singleton now: the handlers must never be the first thing to
  // construct it.
  global_event_log();
  std::snprintf(g_crash_dump_path, sizeof(g_crash_dump_path), "%s", path.c_str());
  if (path.empty()) {
    remove_crash_handlers_if_idle();
    return;
  }
  install_crash_handlers();
}

void set_crash_flush_hook(void (*hook)()) {
  global_event_log();
  g_crash_flush_hook.store(hook, std::memory_order_release);
  if (hook == nullptr) {
    remove_crash_handlers_if_idle();
    return;
  }
  install_crash_handlers();
}

}  // namespace edgeslice::obs
