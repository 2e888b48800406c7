#include "obs/aggregator.h"

#include <chrono>
#include <sstream>
#include <utility>

namespace edgeslice::obs {

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Split a registry display name ("name" or "name{k=\"v\",...}") back
/// into its base name and decoded labels — the exact inverse of
/// encode_metric_labels for suffixes the registry itself produced.
/// Returns false on anything malformed; the caller then treats the whole
/// display name as label-free rather than dropping the series.
bool split_display_name(const std::string& display, std::string& base,
                        MetricLabels& labels) {
  labels.clear();
  const std::size_t brace = display.find('{');
  if (brace == std::string::npos) {
    base = display;
    return true;
  }
  base = display.substr(0, brace);
  if (display.back() != '}') return false;
  std::size_t i = brace + 1;
  const std::size_t end = display.size() - 1;
  while (i < end) {
    const std::size_t eq = display.find('=', i);
    if (eq == std::string::npos || eq >= end || eq + 1 >= end ||
        display[eq + 1] != '"') {
      return false;
    }
    std::string key = display.substr(i, eq - i);
    std::string value;
    std::size_t j = eq + 2;
    for (; j < end; ++j) {
      const char c = display[j];
      if (c == '\\') {
        if (j + 1 >= end) return false;
        const char escaped = display[++j];
        value.push_back(escaped == 'n' ? '\n' : escaped);
      } else if (c == '"') {
        break;
      } else {
        value.push_back(c);
      }
    }
    if (j >= end || display[j] != '"') return false;
    labels.emplace_back(std::move(key), std::move(value));
    i = j + 1;
    if (i < end) {
      if (display[i] != ',') return false;
      ++i;
    }
  }
  return true;
}

/// The (base, labels-with-worker) address a shipped series lands under.
void worker_address(const std::string& display, std::size_t slot,
                    std::string& base, MetricLabels& labels) {
  if (!split_display_name(display, base, labels)) {
    base = display;
    labels.clear();
  }
  labels.emplace_back("worker", std::to_string(slot));
}

}  // namespace

void TelemetryAggregator::reset(std::size_t slots) {
  const std::lock_guard<std::mutex> lock(mutex_);
  slots_.assign(slots, SlotState{});
}

void TelemetryAggregator::on_metrics(std::size_t slot, const MetricsSnapshot& snapshot) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (slot >= slots_.size()) return;
  SlotState& state = slots_[slot];
  state.last = snapshot;
  ++state.snapshots;
  state.last_snapshot_ts_s = now_seconds();
  publish(slot);
}

void TelemetryAggregator::publish(std::size_t slot) {
  SlotState& state = slots_[slot];
  MetricsRegistry& registry = global_metrics();
  std::string base_name;
  MetricLabels labels;
  for (const auto& [display, value] : state.last.counters) {
    worker_address(display, slot, base_name, labels);
    std::uint64_t total = value;
    const auto it = state.counter_base.find(display);
    if (it != state.counter_base.end()) total += it->second;
    registry.counter(base_name, labels).set(total);
  }
  for (const auto& [display, value] : state.last.gauges) {
    worker_address(display, slot, base_name, labels);
    registry.gauge(base_name, labels).set(value);
  }
  for (const auto& [display, shipped] : state.last.histograms) {
    worker_address(display, slot, base_name, labels);
    HistogramState merged;
    const auto it = state.histogram_base.find(display);
    if (it != state.histogram_base.end()) merged = it->second;
    merge_histogram_state(merged, shipped);
    registry.histogram(base_name, labels).load_state(merged);
  }
}

void TelemetryAggregator::on_spans(std::size_t slot,
                                   const std::vector<SpanPeriodStats>& deltas) {
  (void)slot;  // spans aggregate fleet-wide; the tracer has no label axis
  Tracer& tracer = global_tracer();
  for (const SpanPeriodStats& delta : deltas) tracer.merge_period_stats(delta);
}

void TelemetryAggregator::on_events(std::size_t slot, const std::vector<Event>& events) {
  EventLog& log = global_event_log();
  for (Event e : events) {
    e.worker = slot;
    log.record_imported(e);
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  if (slot < slots_.size()) slots_[slot].events += events.size();
}

void TelemetryAggregator::on_worker_lost(std::size_t slot, bool clean) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (slot >= slots_.size()) return;
  SlotState& state = slots_[slot];
  // Fold the dead incarnation's final cumulative values into the base so
  // the respawn's from-zero series stack on top instead of rewinding the
  // labeled exports.
  for (const auto& [display, value] : state.last.counters) {
    state.counter_base[display] += value;
  }
  for (const auto& [display, shipped] : state.last.histograms) {
    merge_histogram_state(state.histogram_base[display], shipped);
  }
  state.last = MetricsSnapshot{};
  if (!clean) {
    Event gap;
    gap.kind = EventKind::TelemetryGap;
    gap.worker = slot;
    gap.value = static_cast<double>(state.snapshots);
    global_event_log().record(gap);
  }
}

std::uint64_t TelemetryAggregator::snapshots_merged(std::size_t slot) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return slot < slots_.size() ? slots_[slot].snapshots : 0;
}

std::uint64_t TelemetryAggregator::events_imported(std::size_t slot) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return slot < slots_.size() ? slots_[slot].events : 0;
}

double TelemetryAggregator::last_snapshot_ts_s(std::size_t slot) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return slot < slots_.size() ? slots_[slot].last_snapshot_ts_s : -1.0;
}

namespace {

std::mutex g_fleet_mutex;
std::vector<FleetWorkerStatus> g_fleet;

}  // namespace

void set_fleet_status(std::vector<FleetWorkerStatus> workers) {
  const std::lock_guard<std::mutex> lock(g_fleet_mutex);
  g_fleet = std::move(workers);
}

std::string fleet_status_json() {
  std::vector<FleetWorkerStatus> fleet;
  {
    const std::lock_guard<std::mutex> lock(g_fleet_mutex);
    fleet = g_fleet;
  }
  const double now = now_seconds();
  std::size_t alive = 0;
  for (const FleetWorkerStatus& w : fleet) alive += w.alive ? 1 : 0;
  std::ostringstream out;
  out << "{\"total\": " << fleet.size() << ", \"alive\": " << alive
      << ", \"workers\": [";
  bool first = true;
  for (const FleetWorkerStatus& w : fleet) {
    out << (first ? "\n  " : ",\n  ");
    out << "{\"slot\": " << w.slot << ", \"alive\": " << (w.alive ? "true" : "false")
        << ", \"pid\": " << w.pid << ", \"restarts\": " << w.restarts
        << ", \"ras\": [";
    for (std::size_t i = 0; i < w.ras.size(); ++i) {
      out << (i == 0 ? "" : ", ") << w.ras[i];
    }
    out << "], \"snapshots\": " << w.snapshots << ", \"events\": " << w.events
        << ", \"last_snapshot_age_s\": ";
    if (w.last_snapshot_ts_s < 0.0) {
      out << "null";
    } else {
      out << (now - w.last_snapshot_ts_s < 0.0 ? 0.0 : now - w.last_snapshot_ts_s);
    }
    out << "}";
    first = false;
  }
  out << (first ? "]}" : "\n]}");
  out << "\n";
  return out.str();
}

}  // namespace edgeslice::obs
