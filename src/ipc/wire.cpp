#include "ipc/wire.h"

#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/binio.h"
#include "ipc/frame.h"

namespace edgeslice::ipc {

namespace {

void write_step(std::ostream& out, const env::StepResult& step) {
  write_f64_vector(out, step.state);
  write_f64_vector(out, step.next_state);
  write_f64(out, step.reward);
  write_f64_vector(out, step.performance);
  write_f64_vector(out, step.queue_lengths);
  write_f64_vector(out, step.service_rates);
  write_f64(out, step.constraint_violation);
}

env::StepResult read_step(std::istream& in) {
  env::StepResult step;
  step.state = read_f64_vector(in, "trace step state");
  step.next_state = read_f64_vector(in, "trace step next_state");
  step.reward = read_f64(in, "trace step reward");
  step.performance = read_f64_vector(in, "trace step performance");
  step.queue_lengths = read_f64_vector(in, "trace step queue_lengths");
  step.service_rates = read_f64_vector(in, "trace step service_rates");
  step.constraint_violation = read_f64(in, "trace step constraint_violation");
  return step;
}

}  // namespace

std::string encode_hello(const HelloPayload& payload) {
  std::ostringstream out;
  write_u64(out, payload.worker_index);
  write_u64(out, payload.hosted_ras.size());
  for (std::uint32_t ra : payload.hosted_ras) write_u32(out, ra);
  return out.str();
}

HelloPayload decode_hello(const std::string& bytes) {
  std::istringstream in(bytes);
  HelloPayload payload;
  payload.worker_index = read_u64(in, "hello worker_index");
  const std::uint64_t count = read_u64(in, "hello hosted count");
  payload.hosted_ras.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i)
    payload.hosted_ras.push_back(read_u32(in, "hello hosted ra"));
  return payload;
}

std::string encode_run_period(const RunPeriodPayload& payload) {
  if (payload.ras.size() != payload.directives.size())
    throw std::invalid_argument("run_period payload: ras/directives mismatch");
  std::ostringstream out;
  write_u64(out, payload.period);
  write_u64(out, payload.telemetry_every);
  write_u64(out, payload.ras.size());
  for (std::size_t i = 0; i < payload.ras.size(); ++i) {
    const core::RaPeriodDirective& d = payload.directives[i];
    write_u32(out, payload.ras[i]);
    write_u8(out, d.run ? 1 : 0);
    write_u8(out, d.has_derate ? 1 : 0);
    for (double v : d.derate) write_f64(out, v);
    write_u32(out, d.stall_ms);
    // d.fault is supervisor-side (physical kill/half-close) and never
    // crosses the wire; abort_run does — it is the worker's own chaos
    // action.
    write_u8(out, d.abort_run ? 1 : 0);
  }
  return out.str();
}

RunPeriodPayload decode_run_period(const std::string& bytes) {
  std::istringstream in(bytes);
  RunPeriodPayload payload;
  payload.period = read_u64(in, "run_period period");
  payload.telemetry_every = read_u64(in, "run_period telemetry_every");
  const std::uint64_t count = read_u64(in, "run_period entry count");
  payload.ras.reserve(count);
  payload.directives.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    payload.ras.push_back(read_u32(in, "run_period ra"));
    core::RaPeriodDirective d;
    d.run = read_u8(in, "run_period run flag") != 0;
    d.has_derate = read_u8(in, "run_period derate flag") != 0;
    for (double& v : d.derate) v = read_f64(in, "run_period derate");
    d.stall_ms = read_u32(in, "run_period stall_ms");
    d.abort_run = read_u8(in, "run_period abort flag") != 0;
    payload.directives.push_back(d);
  }
  return payload;
}

std::string encode_trace(const TracePayload& payload) {
  std::ostringstream out;
  write_u64(out, payload.period);
  write_u8(out, payload.trace.ran ? 1 : 0);
  write_u64(out, payload.trace.steps.size());
  for (const env::StepResult& step : payload.trace.steps) write_step(out, step);
  write_u64(out, payload.trace.actions.size());
  for (const std::vector<double>& action : payload.trace.actions)
    write_f64_vector(out, action);
  return out.str();
}

TracePayload decode_trace(const std::string& bytes) {
  std::istringstream in(bytes);
  TracePayload payload;
  payload.period = read_u64(in, "trace period");
  payload.trace.ran = read_u8(in, "trace ran flag") != 0;
  const std::uint64_t steps = read_u64(in, "trace step count");
  payload.trace.steps.reserve(steps);
  for (std::uint64_t i = 0; i < steps; ++i)
    payload.trace.steps.push_back(read_step(in));
  const std::uint64_t actions = read_u64(in, "trace action count");
  payload.trace.actions.reserve(actions);
  for (std::uint64_t i = 0; i < actions; ++i)
    payload.trace.actions.push_back(read_f64_vector(in, "trace action"));
  return payload;
}

std::string encode_coordination(const CoordinationPayload& payload) {
  std::ostringstream out;
  write_u64(out, payload.period);
  write_f64_vector(out, payload.z_minus_y);
  return out.str();
}

CoordinationPayload decode_coordination(const std::string& bytes) {
  std::istringstream in(bytes);
  CoordinationPayload payload;
  payload.period = read_u64(in, "coordination period");
  payload.z_minus_y = read_f64_vector(in, "coordination vector");
  return payload;
}

std::string encode_u64(std::uint64_t value) {
  std::ostringstream out;
  write_u64(out, value);
  return out.str();
}

std::uint64_t decode_u64(const std::string& bytes, const char* context) {
  std::istringstream in(bytes);
  return read_u64(in, context);
}

namespace {

void write_histogram_state(std::ostream& out, const HistogramState& s) {
  write_u64(out, s.count);
  write_f64(out, s.mean);
  write_f64(out, s.m2);
  write_f64(out, s.min);
  write_f64(out, s.max);
  write_f64(out, s.total);
  write_u64(out, s.zero_count);
  write_u64(out, s.positive.size());
  for (const auto& [bucket, count] : s.positive) {
    write_u32(out, bucket);
    write_u64(out, count);
  }
  write_u64(out, s.negative.size());
  for (const auto& [bucket, count] : s.negative) {
    write_u32(out, bucket);
    write_u64(out, count);
  }
}

HistogramState read_histogram_state(std::istream& in) {
  HistogramState s;
  s.count = read_u64(in, "telemetry hist count");
  s.mean = read_f64(in, "telemetry hist mean");
  s.m2 = read_f64(in, "telemetry hist m2");
  s.min = read_f64(in, "telemetry hist min");
  s.max = read_f64(in, "telemetry hist max");
  s.total = read_f64(in, "telemetry hist total");
  s.zero_count = read_u64(in, "telemetry hist zero_count");
  const std::uint64_t positive = read_u64(in, "telemetry hist positive count");
  s.positive.reserve(positive);
  for (std::uint64_t i = 0; i < positive; ++i) {
    const std::uint32_t bucket = read_u32(in, "telemetry hist bucket");
    s.positive.emplace_back(bucket, read_u64(in, "telemetry hist bucket count"));
  }
  const std::uint64_t negative = read_u64(in, "telemetry hist negative count");
  s.negative.reserve(negative);
  for (std::uint64_t i = 0; i < negative; ++i) {
    const std::uint32_t bucket = read_u32(in, "telemetry hist bucket");
    s.negative.emplace_back(bucket, read_u64(in, "telemetry hist bucket count"));
  }
  return s;
}

}  // namespace

std::string encode_telemetry_snapshot(const TelemetrySnapshotPayload& payload) {
  std::ostringstream out;
  write_u64(out, payload.period);
  write_u64(out, payload.metrics.counters.size());
  for (const auto& [name, value] : payload.metrics.counters) {
    write_string(out, name);
    write_u64(out, value);
  }
  write_u64(out, payload.metrics.gauges.size());
  for (const auto& [name, value] : payload.metrics.gauges) {
    write_string(out, name);
    write_f64(out, value);
  }
  write_u64(out, payload.metrics.histograms.size());
  for (const auto& [name, state] : payload.metrics.histograms) {
    write_string(out, name);
    write_histogram_state(out, state);
  }
  write_u64(out, payload.spans.size());
  for (const SpanPeriodStats& span : payload.spans) {
    write_string(out, span.path);
    write_u64(out, span.period);
    write_u64(out, span.stats.count);
    write_f64(out, span.stats.total_s);
    write_f64(out, span.stats.min_s);
    write_f64(out, span.stats.max_s);
  }
  return out.str();
}

TelemetrySnapshotPayload decode_telemetry_snapshot(const std::string& bytes) {
  std::istringstream in(bytes);
  TelemetrySnapshotPayload payload;
  payload.period = read_u64(in, "telemetry period");
  const std::uint64_t counters = read_u64(in, "telemetry counter count");
  payload.metrics.counters.reserve(counters);
  for (std::uint64_t i = 0; i < counters; ++i) {
    std::string name = read_string(in, "telemetry counter name");
    payload.metrics.counters.emplace_back(std::move(name),
                                          read_u64(in, "telemetry counter value"));
  }
  const std::uint64_t gauges = read_u64(in, "telemetry gauge count");
  payload.metrics.gauges.reserve(gauges);
  for (std::uint64_t i = 0; i < gauges; ++i) {
    std::string name = read_string(in, "telemetry gauge name");
    payload.metrics.gauges.emplace_back(std::move(name),
                                        read_f64(in, "telemetry gauge value"));
  }
  const std::uint64_t histograms = read_u64(in, "telemetry histogram count");
  payload.metrics.histograms.reserve(histograms);
  for (std::uint64_t i = 0; i < histograms; ++i) {
    std::string name = read_string(in, "telemetry histogram name");
    payload.metrics.histograms.emplace_back(std::move(name), read_histogram_state(in));
  }
  const std::uint64_t spans = read_u64(in, "telemetry span count");
  payload.spans.reserve(spans);
  for (std::uint64_t i = 0; i < spans; ++i) {
    SpanPeriodStats span;
    span.path = read_string(in, "telemetry span path");
    span.period = read_u64(in, "telemetry span period");
    span.stats.count = read_u64(in, "telemetry span stat count");
    span.stats.total_s = read_f64(in, "telemetry span total");
    span.stats.min_s = read_f64(in, "telemetry span min");
    span.stats.max_s = read_f64(in, "telemetry span max");
    payload.spans.push_back(std::move(span));
  }
  return payload;
}

std::string encode_telemetry_events(const TelemetryEventsPayload& payload) {
  std::ostringstream out;
  write_u64(out, payload.events.size());
  for (const obs::Event& e : payload.events) {
    write_u64(out, e.seq);
    write_f64(out, e.ts_s);
    write_u64(out, static_cast<std::uint64_t>(e.period));
    write_u64(out, static_cast<std::uint64_t>(e.interval));
    write_u64(out, static_cast<std::uint64_t>(e.ra));
    write_u64(out, static_cast<std::uint64_t>(e.slice));
    write_u64(out, static_cast<std::uint64_t>(e.worker));
    write_u8(out, static_cast<std::uint8_t>(e.kind));
    write_f64(out, e.value);
  }
  return out.str();
}

TelemetryEventsPayload decode_telemetry_events(const std::string& bytes) {
  std::istringstream in(bytes);
  TelemetryEventsPayload payload;
  const std::uint64_t count = read_u64(in, "telemetry event count");
  payload.events.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    obs::Event e;
    e.seq = read_u64(in, "telemetry event seq");
    e.ts_s = read_f64(in, "telemetry event ts");
    e.period = static_cast<std::size_t>(read_u64(in, "telemetry event period"));
    e.interval = static_cast<std::size_t>(read_u64(in, "telemetry event interval"));
    e.ra = static_cast<std::size_t>(read_u64(in, "telemetry event ra"));
    e.slice = static_cast<std::size_t>(read_u64(in, "telemetry event slice"));
    e.worker = static_cast<std::size_t>(read_u64(in, "telemetry event worker"));
    const std::uint8_t kind = read_u8(in, "telemetry event kind");
    if (kind > static_cast<std::uint8_t>(obs::kLastEventKind))
      throw std::runtime_error("telemetry event kind out of range: " + std::to_string(kind));
    e.kind = static_cast<obs::EventKind>(kind);
    e.value = read_f64(in, "telemetry event value");
    payload.events.push_back(e);
  }
  return payload;
}

namespace {

// Raw little-endian putters for the signal-safe frame encoder: identical
// byte layout to binio's stream writers, no iostreams involved.
std::size_t put_u32le(char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  return 4;
}

std::size_t put_u64le(char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  return 8;
}

std::size_t put_f64le(char* p, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return put_u64le(p, bits);
}

/// Bytes one event occupies in a TelemetryEvents payload.
constexpr std::size_t kEventWireSize = 6 * 8 + 1 + 2 * 8;

}  // namespace

std::size_t encode_telemetry_events_frame(char* buf, std::size_t cap,
                                          std::uint64_t seq,
                                          const obs::Event* events,
                                          std::size_t count) {
  const std::size_t payload_size = 8 + count * kEventWireSize;
  const std::size_t total = kFrameHeaderSize + payload_size;
  if (total > cap) return 0;
  char* p = buf + kFrameHeaderSize;
  p += put_u64le(p, count);
  for (std::size_t i = 0; i < count; ++i) {
    const obs::Event& e = events[i];
    p += put_u64le(p, e.seq);
    p += put_f64le(p, e.ts_s);
    p += put_u64le(p, static_cast<std::uint64_t>(e.period));
    p += put_u64le(p, static_cast<std::uint64_t>(e.interval));
    p += put_u64le(p, static_cast<std::uint64_t>(e.ra));
    p += put_u64le(p, static_cast<std::uint64_t>(e.slice));
    p += put_u64le(p, static_cast<std::uint64_t>(e.worker));
    *p++ = static_cast<char>(e.kind);
    p += put_f64le(p, e.value);
  }
  char* h = buf;
  std::memcpy(h, kFrameMagic, 4);
  put_u32le(h + 4, kFrameFormatVersion);
  put_u32le(h + 8, static_cast<std::uint32_t>(FrameType::TelemetryEvents));
  put_u32le(h + 12, kConnectionScope);
  put_u64le(h + 16, seq);
  put_u64le(h + 24, payload_size);
  put_u32le(h + 32, crc32(buf + kFrameHeaderSize, payload_size));
  put_u32le(h + 36, crc32(h, 36));
  return total;
}

}  // namespace edgeslice::ipc
