#include "core/message_bus.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/binio.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "obs/event_log.h"

namespace edgeslice::core {

namespace {

/// Flight-recorder entry for one message-plane happening.
void log_bus_event(obs::EventKind kind, std::size_t period, std::size_t ra,
                   double value = 0.0) {
  obs::Event event;
  event.kind = kind;
  event.period = period;
  event.ra = ra;
  event.value = value;
  obs::global_event_log().record(event);
}

}  // namespace

MessageBus::MessageBus(const FaultInjector* faults) : faults_(faults) {}

void MessageBus::post_report(std::size_t period, const RcMonitoringMessage& message) {
  ++stats_.rcm_sent;
  global_metrics().counter("bus.rcm_sent").add();
  const std::size_t ra = message.ra;
  if (faults_ && faults_->drop_rcm(period, ra)) {
    ++stats_.rcm_dropped;
    global_metrics().counter("bus.rcm_dropped").add();
    log_bus_event(obs::EventKind::RcmDropped, period, ra);
    ES_LOG(Debug) << "bus: RC-M report from RA " << ra << " dropped in period "
                  << period;
    return;
  }
  RcmEnvelope envelope;
  if (!free_.empty()) {
    envelope = std::move(free_.back());
    free_.pop_back();
  }
  envelope.seq = next_seq_++;
  envelope.sent_period = period;
  envelope.deliver_period = period;
  if (faults_) {
    const std::size_t delay = faults_->rcm_delay(period, ra);
    if (delay > 0) {
      envelope.deliver_period = period + delay;
      ++stats_.rcm_delayed;
      global_metrics().counter("bus.rcm_delayed").add();
      log_bus_event(obs::EventKind::RcmDelayed, period, ra,
                    static_cast<double>(delay));
    }
  }
  // Copy-assign (not move) so a recycled envelope's vector capacity is
  // reused — with enough envelopes warmed, posting never allocates.
  envelope.message.ra = message.ra;
  envelope.message.performance_sums = message.performance_sums;
  pending_.push_back(std::move(envelope));
}

void MessageBus::collect_reports_into(std::size_t period,
                                      std::vector<RcmEnvelope>& due) {
  due.clear();
  auto keep = pending_.begin();
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    if (it->deliver_period <= period) {
      due.push_back(std::move(*it));
    } else {
      *keep++ = std::move(*it);
    }
  }
  pending_.erase(keep, pending_.end());
  // In-place stable insertion sort by (deliver_period, seq) — the same
  // order the std::stable_sort it replaces produced, minus that sort's
  // temporary buffer. Envelopes are nearly in order already (posted in
  // seq order, only fault-delayed ones displaced), so this is ~linear.
  for (std::size_t i = 1; i < due.size(); ++i) {
    for (std::size_t j = i; j > 0; --j) {
      const bool out_of_order =
          due[j].deliver_period < due[j - 1].deliver_period ||
          (due[j].deliver_period == due[j - 1].deliver_period &&
           due[j].seq < due[j - 1].seq);
      if (!out_of_order) break;
      std::swap(due[j], due[j - 1]);
    }
  }
  stats_.rcm_delivered += due.size();
  global_metrics().counter("bus.rcm_delivered").add(due.size());
  // Envelope latency in periods (0 for same-period delivery): the delay
  // distribution the coordinator actually experienced.
  auto& latency = global_metrics().histogram("bus.rcm_latency_periods");
  for (const auto& envelope : due) {
    latency.observe(static_cast<double>(period - envelope.sent_period));
    log_bus_event(obs::EventKind::RcmDelivered, period, envelope.message.ra,
                  static_cast<double>(period - envelope.sent_period));
  }
  global_metrics().gauge("bus.in_flight").set(static_cast<double>(pending_.size()));
}

void MessageBus::recycle(std::vector<RcmEnvelope>& envelopes) {
  for (RcmEnvelope& envelope : envelopes) {
    free_.push_back(std::move(envelope));
  }
  envelopes.clear();
}

void MessageBus::save_state(std::ostream& out) const {
  write_u64(out, next_seq_);
  write_u64(out, stats_.rcm_sent);
  write_u64(out, stats_.rcm_dropped);
  write_u64(out, stats_.rcm_delayed);
  write_u64(out, stats_.rcm_delivered);
  write_u64(out, stats_.rcl_sent);
  write_u64(out, stats_.rcl_dropped);
  write_u64(out, pending_.size());
  for (const RcmEnvelope& envelope : pending_) {
    write_u64(out, envelope.seq);
    write_u64(out, envelope.sent_period);
    write_u64(out, envelope.deliver_period);
    write_u64(out, envelope.message.ra);
    write_f64_vector(out, envelope.message.performance_sums);
  }
}

void MessageBus::load_state(std::istream& in) {
  constexpr const char* kContext = "MessageBus::load_state";
  const std::uint64_t next_seq = read_u64(in, kContext);
  MessageBusStats stats;
  stats.rcm_sent = read_u64(in, kContext);
  stats.rcm_dropped = read_u64(in, kContext);
  stats.rcm_delayed = read_u64(in, kContext);
  stats.rcm_delivered = read_u64(in, kContext);
  stats.rcl_sent = read_u64(in, kContext);
  stats.rcl_dropped = read_u64(in, kContext);
  const std::uint64_t in_flight = read_u64(in, kContext);
  if (in_flight > (1ull << 24))
    throw std::runtime_error(std::string(kContext) + ": absurd in-flight count");
  std::vector<RcmEnvelope> pending;
  pending.reserve(static_cast<std::size_t>(in_flight));
  for (std::uint64_t i = 0; i < in_flight; ++i) {
    RcmEnvelope envelope;
    envelope.seq = read_u64(in, kContext);
    envelope.sent_period = static_cast<std::size_t>(read_u64(in, kContext));
    envelope.deliver_period = static_cast<std::size_t>(read_u64(in, kContext));
    envelope.message.ra = static_cast<std::size_t>(read_u64(in, kContext));
    envelope.message.performance_sums = read_f64_vector(in, kContext);
    if (envelope.seq >= next_seq)
      throw std::runtime_error(std::string(kContext) +
                               ": envelope seq beyond sequence counter");
    if (envelope.deliver_period < envelope.sent_period)
      throw std::runtime_error(std::string(kContext) + ": envelope delivered in the past");
    pending.push_back(std::move(envelope));
  }
  next_seq_ = next_seq;
  stats_ = stats;
  pending_ = std::move(pending);
}

bool MessageBus::deliver_coordination(std::size_t period, const RcLearningMessage& message) {
  ++stats_.rcl_sent;
  global_metrics().counter("bus.rcl_sent").add();
  if (faults_ && faults_->drop_rcl(period, message.ra)) {
    ++stats_.rcl_dropped;
    global_metrics().counter("bus.rcl_dropped").add();
    log_bus_event(obs::EventKind::RclDropped, period, message.ra);
    ES_LOG(Debug) << "bus: RC-L push to RA " << message.ra << " lost in period "
                  << period;
    return false;
  }
  if (transport_ != nullptr && !transport_->send_coordination(period, message)) {
    ++stats_.rcl_dropped;
    global_metrics().counter("bus.rcl_dropped").add();
    log_bus_event(obs::EventKind::RclDropped, period, message.ra);
    ES_LOG(Debug) << "bus: RC-L push to RA " << message.ra
                  << " undeliverable (worker down) in period " << period;
    return false;
  }
  return true;
}

}  // namespace edgeslice::core
