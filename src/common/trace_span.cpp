#include "common/trace_span.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <ostream>

#include "common/json.h"
#include "common/metrics.h"

namespace edgeslice {

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Active span path of the calling thread ("" at top level). Spans push
/// their path here so children nest without a handle to the parent.
thread_local std::string t_current_path;

void merge(SpanStats& stats, double seconds) {
  if (stats.count == 0) {
    stats.min_s = stats.max_s = seconds;
  } else {
    stats.min_s = std::min(stats.min_s, seconds);
    stats.max_s = std::max(stats.max_s, seconds);
  }
  ++stats.count;
  stats.total_s += seconds;
}

}  // namespace

Tracer::Span::Span(Tracer* tracer, const std::string& name)
    : tracer_(metrics_enabled() ? tracer : nullptr) {
  if (tracer_ == nullptr) return;
  path_ = t_current_path.empty() ? name : t_current_path + "/" + name;
  t_current_path = path_;
  start_s_ = now_seconds();
}

double Tracer::Span::stop() {
  if (tracer_ == nullptr) return 0.0;
  const double elapsed = now_seconds() - start_s_;
  // Restore the parent path (everything before the last '/').
  const auto cut = path_.rfind('/');
  t_current_path = cut == std::string::npos ? std::string() : path_.substr(0, cut);
  tracer_->record(path_, elapsed);
  tracer_ = nullptr;
  return elapsed;
}

Tracer::Span::~Span() { stop(); }

void Tracer::set_period(std::size_t period) {
  const std::lock_guard<std::mutex> lock(mutex_);
  period_ = period;
}

void Tracer::record(const std::string& path, double seconds) {
  if (!metrics_enabled()) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  Series& series = series_[path];
  merge(series.overall, seconds);
  merge(series.per_period[period_], seconds);
  while (series.per_period.size() > retention_) {
    series.per_period.erase(series.per_period.begin());
  }
}

void Tracer::merge_period_stats(const SpanPeriodStats& delta) {
  if (!metrics_enabled() || delta.stats.count == 0) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  Series& series = series_[delta.path];
  const auto fold = [&delta](SpanStats& into) {
    if (into.count == 0) {
      into.min_s = delta.stats.min_s;
      into.max_s = delta.stats.max_s;
    } else {
      into.min_s = std::min(into.min_s, delta.stats.min_s);
      into.max_s = std::max(into.max_s, delta.stats.max_s);
    }
    into.count += delta.stats.count;
    into.total_s += delta.stats.total_s;
  };
  fold(series.overall);
  fold(series.per_period[static_cast<std::size_t>(delta.period)]);
  while (series.per_period.size() > retention_) {
    series.per_period.erase(series.per_period.begin());
  }
}

std::vector<SpanPeriodStats> Tracer::export_period_stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SpanPeriodStats> out;
  for (const auto& [name, series] : series_) {
    for (const auto& [period, stats] : series.per_period) {
      SpanPeriodStats entry;
      entry.path = name;
      entry.period = period;
      entry.stats = stats;
      out.push_back(std::move(entry));
    }
  }
  return out;
}

std::vector<std::string> Tracer::names() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(series_.size());
  for (const auto& [name, series] : series_) out.push_back(name);
  return out;
}

SpanStats Tracer::overall(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = series_.find(path);
  return it == series_.end() ? SpanStats{} : it->second.overall;
}

std::vector<std::pair<std::size_t, SpanStats>> Tracer::periods(
    const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::size_t, SpanStats>> out;
  const auto it = series_.find(path);
  if (it == series_.end()) return out;
  out.reserve(it->second.per_period.size());
  for (const auto& [period, stats] : it->second.per_period) {
    out.emplace_back(period, stats);
  }
  return out;
}

void Tracer::set_period_retention(std::size_t periods) {
  const std::lock_guard<std::mutex> lock(mutex_);
  retention_ = std::max<std::size_t>(1, periods);
  for (auto& [name, series] : series_) {
    while (series.per_period.size() > retention_) {
      series.per_period.erase(series.per_period.begin());
    }
  }
}

namespace {

void write_stats_json(std::ostream& out, const SpanStats& stats) {
  out << "{\"count\": " << stats.count << ", \"total_s\": " << stats.total_s
      << ", \"mean_s\": " << stats.mean_s() << ", \"min_s\": " << stats.min_s
      << ", \"max_s\": " << stats.max_s;
}

}  // namespace

void Tracer::write_json(std::ostream& out) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  out << "{";
  bool first = true;
  for (const auto& [name, series] : series_) {
    out << (first ? "\n  " : ",\n  ");
    write_json_escaped(out, name);
    out << ": ";
    write_stats_json(out, series.overall);
    out << ", \"periods\": {";
    bool first_period = true;
    for (const auto& [period, stats] : series.per_period) {
      out << (first_period ? "" : ", ") << '"' << period << "\": ";
      write_stats_json(out, stats);
      out << "}";
      first_period = false;
    }
    out << "}}";
    first = false;
  }
  out << (first ? "}" : "\n}");
}

void Tracer::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  series_.clear();
  period_ = 0;
}

namespace {

/// Set by reset_global_tracer_for_fork() in forked children; wins over
/// the lazily constructed parent tracer.
std::atomic<Tracer*> g_tracer_override{nullptr};

}  // namespace

Tracer& global_tracer() {
  if (Tracer* fresh = g_tracer_override.load(std::memory_order_acquire)) return *fresh;
  static Tracer tracer;
  return tracer;
}

void reset_global_tracer_for_fork() {
  // Leak on purpose: the previous object's mutex may be unusable.
  g_tracer_override.store(new Tracer, std::memory_order_release);
}

}  // namespace edgeslice
