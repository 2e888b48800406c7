// serve_poisson: an in-process PolicyServer (hidden 64, batch_max 64,
// otherwise the daemon's defaults) driven by a single-thread open-loop
// Poisson generator over 4 connections.
//
// Phases, each on a freshly started server so no backlog leaks across:
//   reference  a fixed 2,000 req/s: decide_p50/p99 and ok_share
//   ladder     fixed offered rates: the capacity is the highest rung with
//              p99 <= 10 ms, shed <= 0.1%, achieved >= 0.95 x offered and
//              the generator on schedule (a late generator marks the rung
//              generator-limited, never passed)
// Open loop: every request is timed from its scheduled send time, so a
// stall charges the wait it imposes on later requests. Every answered
// action is compared bit for bit with the frozen network's own forward
// pass, and sent = decided + shed + rejected + lost is checked against
// the server's counters.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/trace_span.h"
#include "nn/mlp.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace edgeslice;

constexpr std::size_t kStateDim = 16;   // the city's 8-slice state
constexpr std::size_t kActionDim = 24;  // 8 slices x 3 resources
constexpr std::size_t kHidden = 64;
constexpr std::size_t kBatchMax = 64;
constexpr std::size_t kConnections = 4;
constexpr std::size_t kObservations = 4096;
constexpr double kReferenceRate = 2000.0;
// Fixed offered rates. The top rung is one step below the rate where the
// single-thread generator starts running late on a 4-core x86 box (96,000
// req/s; the server itself sheds near 110,000), so a failed rung is the
// server's. The capacity is therefore a floor: a server that sustains the
// top rung reads its achieved rate, however much faster it is.
constexpr double kLadder[] = {16000, 32000, 48000, 64000, 80000};
constexpr double kP99Limit = 0.010;
constexpr double kShedLimit = 0.001;
constexpr double kAchievedFloor = 0.95;
constexpr double kLagLimit = 0.001;  // generator p99 lateness on schedule
constexpr double kWarmupSeconds = 0.25;  // per ladder rung
// The server's response sockets lack TCP_NODELAY. Once Nagle's algorithm
// holds one response behind the client's delayed ACK, every later response
// on that connection waits for the ACK that rides on the client's next
// request. Long-lived connections settle in that mode; the generator keeps
// its ACKs delayed (TCP_QUICKACK off before each read), and the reference
// phase warms its connections for this long so each has entered it before
// anything is measured. A connection leaves the mode when its delayed ACK
// fires (a stall of 40 ms or more), and a connection without held responses
// stays out of it until two of its requests overlap. Each request therefore
// goes to a connection drawn at random: under round robin the requests of
// one connection were too evenly spaced to overlap, and connections stayed
// out of the mode for the rest of a phase after one stall.
constexpr double kReferenceWarmupSeconds = 2.0;
constexpr std::size_t kSetupSamples = 8;  // extra server starts timed per batch for setup_s
constexpr double kWindowSeconds = 0.5;
constexpr double kDrainSeconds = 2.0;
// Most sends between two reads. A generator behind schedule still reads its
// responses, so the server never stalls on a full socket: it drops a client
// that has not read for 2 s, which would end the run.
constexpr std::size_t kMaxBurst = 64;

/// The served policy, its observations and their expected actions (the
/// network's single-row forward pass under the pinned backend).
struct Fixture {
  explicit Fixture(std::uint64_t seed)
      : policy(make_policy(seed)) {
    Rng rng = Rng(seed).spawn(7);
    observations.reserve(kObservations);
    expected.reserve(kObservations);
    for (std::size_t i = 0; i < kObservations; ++i) {
      observations.push_back(rng.uniforms(kStateDim));
      expected.push_back(policy.infer_vector(observations.back()));
    }
  }
  static nn::Mlp make_policy(std::uint64_t seed) {
    Rng rng = Rng(seed).spawn(99);
    return nn::Mlp({kStateDim, kHidden, kHidden, kActionDim}, nn::Activation::LeakyRelu,
                   nn::Activation::Sigmoid, rng);
  }
  nn::Mlp policy;
  std::vector<std::vector<double>> observations;
  std::vector<std::vector<double>> expected;
};

/// A started server with its client connections; the serving thread runs
/// on the helper CPU, the generator (this thread) on the main one.
struct Endpoint {
  Endpoint(const nn::Mlp& policy, std::vector<double>& setup_seconds) {
    const auto start = Clock::now();
    serve::PolicyServerConfig config;
    config.batch_max = kBatchMax;
    server = std::make_unique<serve::PolicyServer>(policy, config);
    bool started = false;
    spawn_on_helper([&] { started = server->start(); });
    if (!started) throw std::runtime_error("serve: cannot start the server");
    for (std::size_t i = 0; i < kConnections; ++i) {
      clients.push_back(serve::ServeClient::connect("127.0.0.1", server->port()));
    }
    setup_seconds.push_back(seconds_since(start));
  }
  std::unique_ptr<serve::PolicyServer> server;
  std::vector<serve::ServeClient> clients;
};

struct Phase {
  double rate = 0.0;
  std::uint64_t sent = 0, decided = 0, shed = 0, rejected = 0, lost = 0;
  std::uint64_t mismatched = 0;  // answered actions differing from the forward pass
  std::uint64_t duplicates = 0;  // answers to unknown or already-answered ids
  // Measured part (after the warm-up) only:
  std::vector<double> latency;  // scheduled send -> response read
  std::vector<double> lag;      // scheduled send -> actual send
  std::vector<double> latency_due, lag_due;  // scheduled send of each sample
  double send_seconds = 0.0;    // inside ServeClient::send_decide
  std::uint64_t measured_sent = 0;
  std::uint64_t measured_decided = 0;
  double measured_seconds = 0.0;

  double achieved_rate() const {
    return measured_seconds > 0 ? static_cast<double>(measured_decided) / measured_seconds
                                : 0.0;
  }
  double failed_share() const {
    return sent ? static_cast<double>(shed + rejected + lost) / static_cast<double>(sent)
                : 0.0;
  }
  double latency_p99() const { return windowed_p99(latency, latency_due, kWindowSeconds); }
  double lag_p99() const { return windowed_p99(lag, lag_due, kWindowSeconds); }
  bool generator_on_schedule() const { return lag_p99() <= kLagLimit; }
  bool passes() const {
    return latency_p99() <= kP99Limit &&
           static_cast<double>(shed) <= kShedLimit * static_cast<double>(sent) &&
           achieved_rate() >= kAchievedFloor * rate && generator_on_schedule();
  }
};

/// Drive one open-loop phase of `seconds`, the first `warmup` seconds of
/// the schedule unmeasured. With `trace_measured`, metrics are switched on
/// when the first measured request is sent.
Phase run_phase(const Fixture& fixture, Endpoint& endpoint, double rate, double seconds,
                double warmup, Rng& rng, bool trace_measured) {
  Phase phase;
  phase.rate = rate;
  std::vector<double> due;
  std::vector<std::uint8_t> connection;  // drawn per request, not round robin
  for (double t = rng.exponential(rate); t < seconds; t += rng.exponential(rate)) {
    due.push_back(t);
    connection.push_back(static_cast<std::uint8_t>(rng.index(kConnections)));
  }
  const std::size_t n = due.size();
  const std::size_t first_obs = static_cast<std::size_t>(rng.index(kObservations));
  std::vector<std::uint8_t> answered(n, 0);
  std::size_t answers = 0;
  phase.latency.reserve(n);
  phase.lag.reserve(n);

  std::vector<pollfd> fds;
  for (const serve::ServeClient& client : endpoint.clients) fds.push_back({client.fd(), POLLIN, 0});
  const auto start = Clock::now();

  const auto drain = [&](double wait_seconds) {
    timespec timeout{};
    timeout.tv_sec = static_cast<time_t>(wait_seconds);
    timeout.tv_nsec = static_cast<long>((wait_seconds - static_cast<double>(timeout.tv_sec)) * 1e9);
    if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) <= 0) return;
    for (std::size_t c = 0; c < fds.size(); ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      int quickack = 0;
      ::setsockopt(fds[c].fd, IPPROTO_TCP, TCP_QUICKACK, &quickack, sizeof(quickack));
      const auto responses = endpoint.clients[c].poll_decisions(0);
      const double now = seconds_since(start);
      for (const serve::DecideResponsePayload& response : responses) {
        const std::uint64_t id = response.request_id;
        if (id >= n || answered[id]) {
          ++phase.duplicates;
          continue;
        }
        answered[id] = 1;
        ++answers;
        const bool measured = due[id] >= warmup;
        if (response.status == serve::kDecideOk) {
          ++phase.decided;
          const std::vector<double>& want =
              fixture.expected[(first_obs + id) % kObservations];
          if (response.action.size() != want.size() ||
              std::memcmp(response.action.data(), want.data(),
                          want.size() * sizeof(double)) != 0) {
            ++phase.mismatched;
          }
          if (measured) {
            phase.latency.push_back(now - due[id]);
            phase.latency_due.push_back(due[id] - warmup);
            ++phase.measured_decided;
          }
        } else if (response.status == serve::kDecideShed) {
          ++phase.shed;
        } else {
          ++phase.rejected;
        }
      }
    }
  };

  std::size_t next = 0;
  while (next < n) {
    double now = seconds_since(start);
    for (std::size_t burst = 0; burst < kMaxBurst && next < n && due[next] <= now; ++burst) {
      const bool measured = due[next] >= warmup;
      if (measured && trace_measured && !metrics_enabled()) set_metrics_enabled(true);
      const auto send_start = Clock::now();
      endpoint.clients[connection[next]].send_decide(
          next, fixture.observations[(first_obs + next) % kObservations]);
      if (measured) {
        phase.send_seconds += seconds_since(send_start);
        phase.lag.push_back(now - due[next]);
        phase.lag_due.push_back(due[next] - warmup);
        ++phase.measured_sent;
      }
      ++phase.sent;
      ++next;
      now = seconds_since(start);
    }
    // Spin between sends (a zero-timeout ppoll): a sleeping generator
    // wakes late by the scheduler's wake-up latency, which it would then
    // charge to the server.
    drain(0.0);
  }
  phase.measured_seconds = seconds - warmup;
  const auto drain_start = Clock::now();
  while (answers + phase.duplicates < n && seconds_since(drain_start) < kDrainSeconds) {
    drain(0.01);
  }
  phase.lost = n - answers;
  return phase;
}

/// Conservation and bit-identity checks of one phase against the
/// server's own counters.
void check_phase(const Phase& phase, const serve::ServeCounters& server,
                 const std::string& name, Result& result) {
  result.check(phase.sent == phase.decided + phase.shed + phase.rejected + phase.lost,
               name + ": sent != decided + shed + rejected + lost");
  result.check(phase.duplicates == 0, name + ": answers to unknown or repeated ids");
  result.check(phase.mismatched == 0, name + ": served action differs from forward pass");
  result.check(server.decided == phase.decided && server.shed == phase.shed &&
                   server.rejected == phase.rejected,
               name + ": client and server counts disagree");
}

/// The reference rate on one fresh server, measured after its connections
/// have settled (kReferenceWarmupSeconds, or 40% of a very short phase).
Phase run_reference(const Fixture& fixture, double seconds, Rng& rng, bool trace,
                    std::vector<double>& setup_seconds, Result& result) {
  Endpoint endpoint(fixture.policy, setup_seconds);
  const Phase phase = run_phase(fixture, endpoint, kReferenceRate, seconds,
                                std::min(kReferenceWarmupSeconds, 0.4 * seconds), rng, trace);
  set_metrics_enabled(false);
  check_phase(phase, endpoint.server->counters(), "reference", result);
  return phase;
}

double ms(double seconds) { return seconds * 1e3; }
double us(double seconds) { return seconds * 1e6; }

}  // namespace

Result run_serve_poisson(const Options& options) {
  Result result;
  std::vector<double> setup_seconds;
  const Fixture fixture(options.seed);
  const KeepAwake awake;
  Rng rng = Rng(options.seed).spawn(11);
  // A start takes well under a millisecond: time many, here and before
  // each ladder rung, so that setup_s is the fastest start of the whole run.
  const auto time_starts = [&] {
    for (std::size_t i = 0; i < kSetupSamples; ++i) {
      const Endpoint started(fixture.policy, setup_seconds);
    }
  };
  time_starts();

  // Budget: the reference phase gets 30% of the run, the ladder the rest
  // (plus any retried rung); the traced run adds a traced reference phase.
  const double reference_seconds = options.seconds * (options.trace ? 0.2 : 0.3);
  const double rung_seconds =
      options.seconds * (options.trace ? 0.6 : 0.7) / static_cast<double>(std::size(kLadder));

  const Phase reference =
      run_reference(fixture, reference_seconds, rng, false, setup_seconds, result);
  result.attempted = reference.sent;
  result.failed = reference.shed + reference.rejected + reference.lost;
  const double decide_p50 = quantile(reference.latency, 0.50);
  std::printf("# reference %.0f req/s: sent %llu decided %llu shed %llu lost %llu "
              "p50 %.4f ms p99 %.4f ms lag p99 %.1f us\n",
              kReferenceRate, static_cast<unsigned long long>(reference.sent),
              static_cast<unsigned long long>(reference.decided),
              static_cast<unsigned long long>(reference.shed),
              static_cast<unsigned long long>(reference.lost), ms(decide_p50),
              ms(quantile(reference.latency, 0.99)), us(quantile(reference.lag, 0.99)));

  // Traced reference phase: metrics on for its measured part only.
  Phase traced;
  double server_p50 = 0, server_p99 = 0, server_mean = 0, batch_rows = 0;
  std::uint64_t ticks = 0;
  SpanSum tick;
  if (options.trace) {
    traced = run_reference(fixture, reference_seconds, rng, true, setup_seconds, result);
    MetricsRegistry& metrics = global_metrics();
    const Histogram& decision = metrics.histogram("serve.decision_seconds");
    server_p50 = decision.quantile(0.5);
    server_p99 = decision.quantile(0.99);
    server_mean = decision.mean();
    batch_rows = metrics.histogram("serve.batch_rows").mean();
    ticks = metrics.counter("serve.ticks").value();
    tick = span_sum("serve.tick");
  }

  // A rung that misses a condition is run once more: one stall of the
  // shared machine must not decide the capacity. The capacity is the
  // decision rate achieved on the highest rung that passed.
  double capacity = 0.0;
  double capacity_rate = 0.0;
  std::uint64_t ladder_shed = 0, ladder_lost = 0;
  for (double rate : kLadder) {
    for (int attempt = 0; attempt < 2; ++attempt) {
      time_starts();
      Endpoint endpoint(fixture.policy, setup_seconds);
      const Phase rung =
          run_phase(fixture, endpoint, rate, rung_seconds, kWarmupSeconds, rng, false);
      check_phase(rung, endpoint.server->counters(), "ladder", result);
      ladder_shed += rung.shed;
      ladder_lost += rung.lost;
      const bool passed = rung.passes();
      std::printf("# rung %6.0f req/s: achieved %8.1f p50 %.4f ms p99 %.4f ms shed %llu "
                  "lost %llu lag p99 %.1f us %s\n",
                  rate, rung.achieved_rate(), ms(quantile(rung.latency, 0.5)),
                  ms(rung.latency_p99()), static_cast<unsigned long long>(rung.shed),
                  static_cast<unsigned long long>(rung.lost), us(rung.lag_p99()),
                  passed ? "pass"
                         : (rung.generator_on_schedule() ? "fail" : "generator-limited"));
      if (passed && rate > capacity_rate) {
        capacity_rate = rate;
        capacity = rung.achieved_rate();
      }
      if (passed) break;
    }
  }
  std::printf("# capacity: highest passing rung %.0f req/s\n", capacity_rate);

  if (!options.trace) {
    result.add("setup_s", fastest(setup_seconds), "s");
    result.add("peak_rss_mb", peak_rss_mb(), "MB");
    result.add("ok_share", 1.0 - reference.failed_share(), "ratio");
    result.add("throughput_per_s", capacity, "1/s");
    result.add("latency_mean_ms", ms(mean(reference.latency)), "ms");
    result.add("latency_p99_ms", ms(quantile(reference.latency, 0.99)), "ms");
    return result;
  }

  const double requests = static_cast<double>(traced.measured_sent);
  const double decide_mean = mean(traced.latency);
  const double lag_mean = mean(traced.lag);
  const double send_mean = traced.send_seconds / requests;
  const double residual = decide_mean - lag_mean - send_mean - server_mean;
  result.check(residual >= 0.0, "negative unattributed request time");
  result.add("trace_overhead", decide_mean / mean(reference.latency) - 1.0, "ratio");
  result.add("serve.decide_us", us(decide_mean), "us");
  result.add("serve.generator_lag_us", us(lag_mean), "us");
  result.add("serve.generator_lag_p99_us", us(quantile(traced.lag, 0.99)), "us");
  result.add("serve.client_send_us", us(send_mean), "us");
  result.add("serve.server_decision_us", us(server_mean), "us");
  result.add("serve.server_decision_p50_us", us(server_p50), "us");
  result.add("serve.server_decision_p99_us", us(server_p99), "us");
  result.add("serve.transport_p50_us", us(quantile(traced.latency, 0.5) - server_p50), "us");
  result.add("serve.unattributed_us", us(residual), "us");
  result.add("serve.tick_us", tick.count ? us(tick.seconds / static_cast<double>(tick.count)) : 0.0,
             "us");
  result.add("serve.ticks", static_cast<double>(ticks), "count");
  result.add("serve.batch_rows_mean", batch_rows, "count");
  result.add("serve.ref_shed", static_cast<double>(traced.shed), "count");
  result.add("serve.ref_lost", static_cast<double>(traced.lost), "count");
  result.add("serve.ladder_shed", static_cast<double>(ladder_shed), "count");
  result.add("serve.ladder_lost", static_cast<double>(ladder_lost), "count");
  return result;
}

}  // namespace perfbench
