// Thread-safe metrics registry: counters, gauges, and bounded-memory
// streaming histograms.
//
// The observability substrate for the control plane (DESIGN.md Sec. 8).
// Every component records into the process-global registry under a
// hierarchical dotted name ("bus.rcm_dropped", "coordinator.solve_s");
// the bench harness exports the registry as JSON/CSV next to its
// figures. Recording is observation-only — nothing in the orchestration
// path reads a metric back — so results are bit-identical whether
// metrics are enabled or not.
//
// Metrics may additionally carry a label set (Prometheus-style
// key="value" dimensions). The fleet telemetry plane uses one label,
// worker="<slot>", to keep every worker process's series distinguishable
// after the supervisor merges them into this registry (DESIGN.md
// "Fleet telemetry"); unlabeled metrics export exactly as before, so the
// label dimension is invisible until someone records with labels.
//
// Memory is bounded by construction: counters and gauges are single
// words, and histograms keep a fixed set of logarithmic buckets plus a
// RunningStat (no sample reservoir), so arbitrarily long runs never grow
// the registry beyond the number of distinct (name, labels) pairs.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"

namespace edgeslice {

/// Process-global switch. When disabled, every record operation is a
/// no-op (a single relaxed atomic load) and spans do not read the clock.
/// Exporters still work on whatever was recorded while enabled.
void set_metrics_enabled(bool enabled);
bool metrics_enabled();

/// Label dimensions of one metric, e.g. {{"worker", "3"}}. Encoded
/// canonically (sorted by key) so lookup order never mints duplicates.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// Canonical display/storage suffix of a label set: "" when empty,
/// otherwise "{k=\"v\",...}" with keys sorted and values escaped
/// (Prometheus label syntax, also used as the registry key suffix).
std::string encode_metric_labels(const MetricLabels& labels);

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1);
  /// Overwrite the count. For aggregation (a merged worker series is
  /// republished wholesale each snapshot), not for instrumentation.
  void set(std::uint64_t v);
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written instantaneous value (utilization, loss, occupancy).
class Gauge {
 public:
  void set(double v);
  double value() const;
  bool written() const { return written_.load(std::memory_order_acquire); }

 private:
  std::atomic<double> value_{0.0};
  std::atomic<bool> written_{false};
};

/// Complete portable state of one Histogram: the RunningStat fields plus
/// the sparse bucket counts. Two states merge exactly — bucket-wise count
/// addition plus Chan's parallel-variance update — because every
/// histogram shares the same kMinAbs/kGrowth/kBuckets geometry. This is
/// what a worker ships in a TelemetrySnapshot frame and what the
/// supervisor-side aggregator folds per worker.
struct HistogramState {
  std::uint64_t count = 0;  // RunningStat n
  double mean = 0.0;
  double m2 = 0.0;
  double min = 0.0;
  double max = 0.0;
  double total = 0.0;
  std::uint64_t zero_count = 0;
  // Sparse (bucket index, count) pairs, ascending by bucket.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> positive;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> negative;
};

/// Merge `b` into `a`: bucket counts add element-wise, the moment
/// accumulators combine via Chan's parallel algorithm, min/max take the
/// envelope. Quantile estimates of the merged state match a histogram
/// fed the union of both sample streams exactly (same bucket counts,
/// same observed range).
void merge_histogram_state(HistogramState& a, const HistogramState& b);

/// Streaming histogram over logarithmic buckets.
///
/// Observations land in geometric buckets spanning [kMinAbs, kMinAbs *
/// kGrowth^kBuckets) by absolute value, with a dedicated zero bucket and
/// a mirrored negative range, alongside a RunningStat for exact count /
/// mean / min / max. Quantiles are estimated from the bucket boundaries
/// (geometric midpoint), clamped to the observed range — a deliberate
/// accuracy-for-memory trade: resolution is ~13% of the value, memory is
/// O(kBuckets) forever.
class Histogram {
 public:
  static constexpr double kMinAbs = 1e-9;
  static constexpr double kGrowth = 1.3;
  static constexpr std::size_t kBuckets = 220;  // reaches ~2.6e16 * kMinAbs

  void observe(double x);

  std::size_t count() const;
  double mean() const;
  double min() const;
  double max() const;
  double total() const;
  /// Estimated q-quantile, q in [0, 1]. Returns 0 when empty.
  double quantile(double q) const;

  /// Portable copy of the full state (for telemetry shipping / merging).
  HistogramState state() const;
  /// Replace the contents wholesale with `s` (the aggregation path;
  /// honours the global metrics switch like every other mutation).
  void load_state(const HistogramState& s);

 private:
  mutable std::mutex mutex_;
  RunningStat stat_;
  double total_ = 0.0;
  std::uint64_t zero_count_ = 0;
  // Sparse bucket maps keep an all-but-unused histogram tiny; the map can
  // never exceed kBuckets entries per sign.
  std::map<std::size_t, std::uint64_t> positive_;
  std::map<std::size_t, std::uint64_t> negative_;
};

/// Everything one registry holds, as plain values keyed by display name
/// (name + canonical label suffix). The worker-side telemetry shipper
/// serializes this; the supervisor-side aggregator consumes it.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramState>> histograms;
};

/// Named metric store. Lookup creates on first use; returned references
/// stay valid for the registry's lifetime (metrics are never removed,
/// clear() only drops them wholesale). The labeled overloads address the
/// (name, labels) pair; the unlabeled ones are the empty-label case.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Counter& counter(const std::string& name, const MetricLabels& labels);
  Gauge& gauge(const std::string& name);
  Gauge& gauge(const std::string& name, const MetricLabels& labels);
  Histogram& histogram(const std::string& name);
  Histogram& histogram(const std::string& name, const MetricLabels& labels);

  /// Counter display names (name + label suffix), sorted.
  std::vector<std::string> counter_names() const;

  /// Plain-value copy of everything (telemetry shipping).
  MetricsSnapshot snapshot() const;

  /// JSON object {"counters": {...}, "gauges": {...}, "histograms":
  /// {name: {count, mean, min, max, total, p50, p90, p99}}}.
  void write_json(std::ostream& out) const;
  /// Prometheus text exposition format (the /metrics HTTP payload).
  /// Dotted names are sanitized to legal Prometheus names ('.' and every
  /// other illegal character become '_'); label variants of one name
  /// share a single # TYPE line; histograms export as summaries:
  /// <name>{quantile="0.5|0.9|0.99"}, <name>_sum, <name>_count.
  void write_prometheus(std::ostream& out) const;

  /// Drop every metric (names included). Intended for tests.
  void clear();

 private:
  // Keyed (name, label suffix) so every label variant of one base name is
  // adjacent — write_prometheus groups them under one # TYPE line.
  using Key = std::pair<std::string, std::string>;
  template <typename M>
  using Store = std::map<Key, std::unique_ptr<M>>;

  mutable std::mutex mutex_;
  Store<Counter> counters_;
  Store<Gauge> gauges_;
  Store<Histogram> histograms_;
};

/// The process-global registry the control plane records into.
MetricsRegistry& global_metrics();

/// Replace the process-global registry with a fresh one (the old object
/// is leaked deliberately — its mutex may be held by a thread that did
/// not survive fork()). Call from a freshly forked, single-threaded
/// child before recording anything; never from a threaded process.
void reset_global_metrics_for_fork();

}  // namespace edgeslice
