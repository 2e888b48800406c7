#include "common/metrics.h"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "common/json.h"

namespace edgeslice {

namespace {

std::atomic<bool> g_metrics_enabled{true};

/// Geometric bucket index for a magnitude m >= 0 (m > 0 expected).
std::size_t bucket_for(double m) {
  if (m <= Histogram::kMinAbs) return 0;
  const double idx = std::log(m / Histogram::kMinAbs) / std::log(Histogram::kGrowth);
  return std::min(Histogram::kBuckets - 1, static_cast<std::size_t>(idx));
}

/// Representative value of bucket b: geometric midpoint of its bounds.
double bucket_mid(std::size_t b) {
  const double lo = Histogram::kMinAbs * std::pow(Histogram::kGrowth, static_cast<double>(b));
  return lo * std::sqrt(Histogram::kGrowth);
}

/// A legal Prometheus metric name: [a-zA-Z_:][a-zA-Z0-9_:]*. Every other
/// character (the registry's dots, most notably) becomes '_'.
std::string prometheus_name(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(out.begin(), '_');
  return out;
}

/// Escape a label value per the Prometheus text format: backslash, quote,
/// and newline.
void append_label_value(std::string& out, const std::string& value) {
  for (char c : value) {
    if (c == '\\' || c == '"') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
}

/// The label suffix with one more label appended (for summary quantiles):
/// "" + q -> {quantile="q"}, {a="b"} + q -> {a="b",quantile="q"}.
std::string suffix_with(const std::string& suffix, const char* key,
                        const char* value) {
  std::string extra;
  extra += key;
  extra += "=\"";
  extra += value;
  extra += "\"}";
  if (suffix.empty()) return "{" + extra;
  std::string out = suffix;
  out.pop_back();  // drop the closing '}'
  out += ",";
  out += extra;
  return out;
}

}  // namespace

void set_metrics_enabled(bool enabled) {
  g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

bool metrics_enabled() { return g_metrics_enabled.load(std::memory_order_relaxed); }

std::string encode_metric_labels(const MetricLabels& labels) {
  if (labels.empty()) return "";
  MetricLabels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : sorted) {
    if (!first) out += ",";
    out += key;
    out += "=\"";
    append_label_value(out, value);
    out += "\"";
    first = false;
  }
  out += "}";
  return out;
}

void Counter::add(std::uint64_t n) {
  if (!metrics_enabled()) return;
  value_.fetch_add(n, std::memory_order_relaxed);
}

void Counter::set(std::uint64_t v) {
  if (!metrics_enabled()) return;
  value_.store(v, std::memory_order_relaxed);
}

void Gauge::set(double v) {
  if (!metrics_enabled()) return;
  value_.store(v, std::memory_order_relaxed);
  written_.store(true, std::memory_order_release);
}

double Gauge::value() const { return value_.load(std::memory_order_relaxed); }

void merge_histogram_state(HistogramState& a, const HistogramState& b) {
  if (b.count == 0) return;
  if (a.count == 0) {
    a = b;
    return;
  }
  // Chan's parallel update of Welford's accumulators: exact to rounding,
  // independent of which side the samples arrived on.
  const double na = static_cast<double>(a.count);
  const double nb = static_cast<double>(b.count);
  const double delta = b.mean - a.mean;
  const double n = na + nb;
  a.m2 = a.m2 + b.m2 + delta * delta * na * nb / n;
  a.mean = a.mean + delta * nb / n;
  a.count += b.count;
  a.min = std::min(a.min, b.min);
  a.max = std::max(a.max, b.max);
  a.total += b.total;
  a.zero_count += b.zero_count;
  const auto merge_buckets =
      [](std::vector<std::pair<std::uint32_t, std::uint64_t>>& into,
         const std::vector<std::pair<std::uint32_t, std::uint64_t>>& from) {
        std::map<std::uint32_t, std::uint64_t> merged(into.begin(), into.end());
        for (const auto& [bucket, count] : from) merged[bucket] += count;
        into.assign(merged.begin(), merged.end());
      };
  merge_buckets(a.positive, b.positive);
  merge_buckets(a.negative, b.negative);
}

void Histogram::observe(double x) {
  if (!metrics_enabled() || !std::isfinite(x)) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  stat_.add(x);
  total_ += x;
  if (x == 0.0) {
    ++zero_count_;
  } else if (x > 0.0) {
    ++positive_[bucket_for(x)];
  } else {
    ++negative_[bucket_for(-x)];
  }
}

std::size_t Histogram::count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stat_.count();
}

double Histogram::mean() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stat_.mean();
}

double Histogram::min() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stat_.count() ? stat_.min() : 0.0;
}

double Histogram::max() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stat_.count() ? stat_.max() : 0.0;
}

double Histogram::total() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return total_;
}

double Histogram::quantile(double q) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t n = stat_.count();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the requested quantile (1-based, nearest-rank method).
  const std::uint64_t rank =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n))));
  std::uint64_t seen = 0;
  double value = stat_.max();
  bool found = false;
  // Walk buckets in ascending value order: negatives from large magnitude
  // down, then zero, then positives up.
  for (auto it = negative_.rbegin(); it != negative_.rend() && !found; ++it) {
    seen += it->second;
    if (seen >= rank) {
      value = -bucket_mid(it->first);
      found = true;
    }
  }
  if (!found) {
    seen += zero_count_;
    if (seen >= rank) {
      value = 0.0;
      found = true;
    }
  }
  for (auto it = positive_.begin(); it != positive_.end() && !found; ++it) {
    seen += it->second;
    if (seen >= rank) {
      value = bucket_mid(it->first);
      found = true;
    }
  }
  // Bucket midpoints can overshoot the true extremes; the exact observed
  // range is known, so clamp to it.
  return std::clamp(value, stat_.min(), stat_.max());
}

HistogramState Histogram::state() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  HistogramState s;
  s.count = stat_.count();
  s.mean = stat_.mean();
  s.m2 = stat_.m2();
  s.min = stat_.min();
  s.max = stat_.max();
  s.total = total_;
  s.zero_count = zero_count_;
  s.positive.reserve(positive_.size());
  for (const auto& [bucket, count] : positive_)
    s.positive.emplace_back(static_cast<std::uint32_t>(bucket), count);
  s.negative.reserve(negative_.size());
  for (const auto& [bucket, count] : negative_)
    s.negative.emplace_back(static_cast<std::uint32_t>(bucket), count);
  return s;
}

void Histogram::load_state(const HistogramState& s) {
  if (!metrics_enabled()) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  stat_.restore(s.count, s.mean, s.m2, s.min, s.max);
  total_ = s.total;
  zero_count_ = s.zero_count;
  positive_.clear();
  for (const auto& [bucket, count] : s.positive) positive_[bucket] = count;
  negative_.clear();
  for (const auto& [bucket, count] : s.negative) negative_[bucket] = count;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  return counter(name, {});
}

Counter& MetricsRegistry::counter(const std::string& name, const MetricLabels& labels) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[Key(name, encode_metric_labels(labels))];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) { return gauge(name, {}); }

Gauge& MetricsRegistry::gauge(const std::string& name, const MetricLabels& labels) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[Key(name, encode_metric_labels(labels))];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  return histogram(name, {});
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const MetricLabels& labels) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[Key(name, encode_metric_labels(labels))];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

namespace {

/// Display name of one store key: the metric name plus its label suffix.
std::string display_name(const std::pair<std::string, std::string>& key) {
  return key.second.empty() ? key.first : key.first + key.second;
}

}  // namespace

std::vector<std::string> MetricsRegistry::counter_names() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(counters_.size());
  for (const auto& [key, metric] : counters_) names.push_back(display_name(key));
  return names;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [key, metric] : counters_)
    snap.counters.emplace_back(display_name(key), metric->value());
  snap.gauges.reserve(gauges_.size());
  for (const auto& [key, metric] : gauges_)
    snap.gauges.emplace_back(display_name(key), metric->value());
  snap.histograms.reserve(histograms_.size());
  for (const auto& [key, metric] : histograms_)
    snap.histograms.emplace_back(display_name(key), metric->state());
  return snap;
}

void MetricsRegistry::write_json(std::ostream& out) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [key, metric] : counters_) {
    out << (first ? "\n    " : ",\n    ");
    write_json_escaped(out, display_name(key));
    out << ": " << metric->value();
    first = false;
  }
  out << (first ? "}" : "\n  }") << ",\n  \"gauges\": {";
  first = true;
  for (const auto& [key, metric] : gauges_) {
    out << (first ? "\n    " : ",\n    ");
    write_json_escaped(out, display_name(key));
    out << ": " << metric->value();
    first = false;
  }
  out << (first ? "}" : "\n  }") << ",\n  \"histograms\": {";
  first = true;
  for (const auto& [key, metric] : histograms_) {
    out << (first ? "\n    " : ",\n    ");
    write_json_escaped(out, display_name(key));
    out << ": {\"count\": " << metric->count() << ", \"mean\": " << metric->mean()
        << ", \"min\": " << metric->min() << ", \"max\": " << metric->max()
        << ", \"total\": " << metric->total() << ", \"p50\": " << metric->quantile(0.5)
        << ", \"p90\": " << metric->quantile(0.9)
        << ", \"p99\": " << metric->quantile(0.99) << "}";
    first = false;
  }
  out << (first ? "}" : "\n  }") << "\n}";
}

void MetricsRegistry::write_prometheus(std::ostream& out) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  // The store is ordered by (name, label suffix), so every label variant
  // of one name is adjacent: emit the # TYPE line once per name.
  const char* last_type_name = nullptr;
  std::string last_typed;
  const auto type_line = [&](const std::string& name, const char* kind) {
    if (last_type_name == kind && last_typed == name) return;
    out << "# TYPE " << prometheus_name(name) << " " << kind << "\n";
    last_type_name = kind;
    last_typed = name;
  };
  for (const auto& [key, metric] : counters_) {
    type_line(key.first, "counter");
    out << prometheus_name(key.first) << key.second << " " << metric->value() << "\n";
  }
  for (const auto& [key, metric] : gauges_) {
    type_line(key.first, "gauge");
    out << prometheus_name(key.first) << key.second << " " << metric->value() << "\n";
  }
  for (const auto& [key, metric] : histograms_) {
    const std::string p = prometheus_name(key.first);
    type_line(key.first, "summary");
    out << p << suffix_with(key.second, "quantile", "0.5") << " "
        << metric->quantile(0.5) << "\n";
    out << p << suffix_with(key.second, "quantile", "0.9") << " "
        << metric->quantile(0.9) << "\n";
    out << p << suffix_with(key.second, "quantile", "0.99") << " "
        << metric->quantile(0.99) << "\n";
    out << p << "_sum" << key.second << " " << metric->total() << "\n";
    out << p << "_count" << key.second << " " << metric->count() << "\n";
  }
}

void MetricsRegistry::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

namespace {

/// Set by reset_global_metrics_for_fork() in forked children; wins over
/// the lazily constructed parent registry (whose mutex state did not
/// survive the fork).
std::atomic<MetricsRegistry*> g_metrics_override{nullptr};

}  // namespace

MetricsRegistry& global_metrics() {
  if (MetricsRegistry* fresh = g_metrics_override.load(std::memory_order_acquire))
    return *fresh;
  static MetricsRegistry registry;
  return registry;
}

void reset_global_metrics_for_fork() {
  // Leak on purpose: the previous object's mutex may be unusable and other
  // code may still hold references into it.
  g_metrics_override.store(new MetricsRegistry, std::memory_order_release);
}

}  // namespace edgeslice
