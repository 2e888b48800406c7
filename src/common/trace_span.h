// Lightweight control-plane tracing: steady-clock spans with parent
// nesting and per-period aggregation.
//
// A span measures one timed region ("period/coordinate", "ddpg.train_batch").
// Nesting is tracked per thread: a span opened while another is active on
// the same thread records under "<parent-path>/<name>", so the exported
// tree mirrors the call structure without storing explicit span objects.
// Finished spans are aggregated immediately — per name overall and per
// (name, period) with a bounded period window — so memory is O(names *
// retained periods) regardless of run length; no raw span log is kept.
//
// Recording honours the global metrics switch (common/metrics.h): with
// metrics disabled a span neither reads the clock nor touches the tracer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace edgeslice {

/// Aggregated timings of one span name (overall or within one period).
struct SpanStats {
  std::size_t count = 0;
  double total_s = 0.0;
  double min_s = 0.0;
  double max_s = 0.0;
  double mean_s() const { return count ? total_s / static_cast<double>(count) : 0.0; }
};

/// One (path, period) aggregate as shipped by the fleet telemetry plane:
/// a worker periodically exports the *delta* of each retained per-period
/// series since its last export, and the supervisor merges the deltas
/// into its own tracer (count/total add; min/max take the envelope).
struct SpanPeriodStats {
  std::string path;
  std::uint64_t period = 0;
  SpanStats stats;
};

class Tracer {
 public:
  /// RAII timed region. Records into the tracer on destruction (or on an
  /// explicit stop()); moves are not needed — open spans live on the stack.
  class Span {
   public:
    Span(Tracer* tracer, const std::string& name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Stop now and record; returns the elapsed seconds (0 if inert).
    double stop();
    /// The full parent path this span records under.
    const std::string& path() const { return path_; }

   private:
    Tracer* tracer_;  // null once stopped or when tracing is disabled
    std::string path_;
    double start_s_ = 0.0;
  };

  /// Open a span named `name` under the calling thread's current span.
  Span span(const std::string& name) { return Span(this, name); }

  /// The period label under which subsequent records aggregate.
  void set_period(std::size_t period);

  /// Record a finished duration directly (no clock involved).
  void record(const std::string& path, double seconds);

  /// Merge a shipped (path, period) aggregate into this tracer: both the
  /// overall series and the per-period entry gain `delta.stats.count`
  /// samples totalling `total_s`, with min/max folded element-wise.
  /// Honours the metrics switch and the period retention window.
  void merge_period_stats(const SpanPeriodStats& delta);

  /// Every retained (path, period) aggregate, path-major then
  /// period-ascending (the telemetry shipper diffs consecutive exports).
  std::vector<SpanPeriodStats> export_period_stats() const;

  std::vector<std::string> names() const;
  SpanStats overall(const std::string& path) const;
  /// Retained (period, stats) pairs of one span, oldest first.
  std::vector<std::pair<std::size_t, SpanStats>> periods(const std::string& path) const;

  /// How many distinct periods are retained per span name (oldest evicted
  /// first). The overall aggregate is unaffected by eviction. Default 256.
  void set_period_retention(std::size_t periods);

  /// JSON object {path: {"count":..., "total_s":..., ..., "periods":
  /// {"<period>": {...}}}}.
  void write_json(std::ostream& out) const;

  void clear();

 private:
  struct Series {
    SpanStats overall;
    std::map<std::size_t, SpanStats> per_period;
  };

  mutable std::mutex mutex_;
  std::map<std::string, Series> series_;
  std::size_t period_ = 0;
  std::size_t retention_ = 256;
};

/// The process-global tracer the control plane records into.
Tracer& global_tracer();

/// Replace the process-global tracer with a fresh one (the old object is
/// leaked — its mutex may be unusable after fork()). Call from a freshly
/// forked, single-threaded child only.
void reset_global_tracer_for_fork();

}  // namespace edgeslice
