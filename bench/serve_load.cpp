// Open-loop Poisson load generator for the policy-serving plane.
//
// Drives a policy-serve daemon with Poisson arrivals at a configured
// offered rate — open loop: send times are drawn up front from the
// arrival process and requests are fired on schedule whether or not
// earlier responses have come back, so an overloaded server sees the
// backlog a real request stream would produce (closed-loop generators
// self-throttle and hide saturation). Reports offered vs achieved
// throughput, client-observed decision-latency quantiles (p50/p99/p999),
// and the shed rate into BENCH_serving.json (FORMATS.md "BENCH_serving
// schema"), ledger-compatible with tools/bench_ledger.
//
// Self-contained by default: constructs a deterministic policy network
// from --seed and serves it in-process. Point it at an external daemon
// with --port (and --host), e.g. one started by tools/policy_serve.
#include <poll.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/cli.h"
#include "common/rng.h"
#include "common/stats.h"
#include "nn/gemm.h"
#include "nn/mlp.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"

using namespace edgeslice;

namespace {

/// Every field BENCH_serving.json carries, in emission order. The docs
/// check (tests/docs_check.cmake) pins each name to FORMATS.md, and
/// write_serving_json verifies the emitted document covers exactly this
/// table — a field cannot be added, renamed, or dropped without the docs
/// following.
constexpr const char* kServeBenchFields[] = {
    "state_dim",
    "action_dim",
    "hidden_dim",
    "batch_max",
    "queue_limit",
    "connections",
    "offered_rate",
    "requests",
    "seed",
    "gemm_backend",
    "wall_seconds",
    "sent",
    "decided",
    "shed",
    "rejected",
    "lost",
    "achieved_rate",
    "shed_rate",
    "p50_decision_seconds",
    "p99_decision_seconds",
    "p999_decision_seconds",
    "p50_server_seconds",
    "p99_server_seconds",
};

struct LoadConfig {
  std::size_t state_dim = 8;
  std::size_t action_dim = 3;
  std::size_t hidden_dim = 64;
  std::size_t batch_max = 64;
  std::size_t queue_limit = 256;
  std::size_t connections = 4;
  double offered_rate = 2000.0;  // requests/second, all connections together
  std::size_t requests = 10000;
  std::uint64_t seed = 1;
};

struct LoadResult {
  double wall_seconds = 0.0;
  std::size_t sent = 0;
  std::size_t decided = 0;
  std::size_t shed = 0;
  std::size_t rejected = 0;
  std::size_t lost = 0;
  double achieved_rate = 0.0;
  double shed_rate = 0.0;
  double p50 = 0.0, p99 = 0.0, p999 = 0.0;
  double server_p50 = 0.0, server_p99 = 0.0;
};

std::string json_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// Write the report, field order and names exactly per kServeBenchFields.
bool write_serving_json(const std::string& path, const LoadConfig& config,
                        const LoadResult& result) {
  std::vector<std::pair<std::string, std::string>> fields;
  const auto count = [](std::size_t v) {
    return json_number(static_cast<double>(v));
  };
  fields.emplace_back("state_dim", count(config.state_dim));
  fields.emplace_back("action_dim", count(config.action_dim));
  fields.emplace_back("hidden_dim", count(config.hidden_dim));
  fields.emplace_back("batch_max", count(config.batch_max));
  fields.emplace_back("queue_limit", count(config.queue_limit));
  fields.emplace_back("connections", count(config.connections));
  fields.emplace_back("offered_rate", json_number(config.offered_rate));
  fields.emplace_back("requests", count(config.requests));
  fields.emplace_back("seed", count(static_cast<std::size_t>(config.seed)));
  fields.emplace_back("gemm_backend",
                      std::string("\"") +
                          nn::gemm_backend_name(nn::active_gemm_backend()) + "\"");
  fields.emplace_back("wall_seconds", json_number(result.wall_seconds));
  fields.emplace_back("sent", count(result.sent));
  fields.emplace_back("decided", count(result.decided));
  fields.emplace_back("shed", count(result.shed));
  fields.emplace_back("rejected", count(result.rejected));
  fields.emplace_back("lost", count(result.lost));
  fields.emplace_back("achieved_rate", json_number(result.achieved_rate));
  fields.emplace_back("shed_rate", json_number(result.shed_rate));
  fields.emplace_back("p50_decision_seconds", json_number(result.p50));
  fields.emplace_back("p99_decision_seconds", json_number(result.p99));
  fields.emplace_back("p999_decision_seconds", json_number(result.p999));
  fields.emplace_back("p50_server_seconds", json_number(result.server_p50));
  fields.emplace_back("p99_server_seconds", json_number(result.server_p99));

  constexpr std::size_t kFieldCount =
      sizeof(kServeBenchFields) / sizeof(kServeBenchFields[0]);
  if (fields.size() != kFieldCount) {
    std::fprintf(stderr, "[serve_load] field table out of sync with emission\n");
    return false;
  }
  for (std::size_t i = 0; i < kFieldCount; ++i) {
    if (fields[i].first != kServeBenchFields[i]) {
      std::fprintf(stderr, "[serve_load] field %zu is \"%s\", table says \"%s\"\n",
                   i, fields[i].first.c_str(), kServeBenchFields[i]);
      return false;
    }
  }

  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    if (!out) {
      std::fprintf(stderr, "[serve_load] cannot write %s\n", tmp.c_str());
      return false;
    }
    out << "{\n";
    for (std::size_t i = 0; i < fields.size(); ++i) {
      out << "  \"" << fields[i].first << "\": " << fields[i].second;
      out << (i + 1 < fields.size() ? ",\n" : "\n");
    }
    out << "}\n";
  }
  std::remove(path.c_str());
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

double elapsed_seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

LoadResult run_load(const std::string& host, std::uint16_t port,
                    const LoadConfig& config, int drain_timeout_ms) {
  // Draw the whole arrival schedule up front (open loop: the schedule is
  // a property of the offered load, not of the server's behaviour), and
  // pre-generate observations so generation cost never gates send times.
  Rng rng(config.seed);
  std::vector<double> send_at(config.requests);
  double t = 0.0;
  for (double& at : send_at) {
    t += rng.exponential(config.offered_rate);
    at = t;
  }
  std::vector<std::vector<double>> observations(config.requests);
  for (auto& observation : observations) {
    observation = rng.uniforms(config.state_dim);
  }

  std::vector<serve::ServeClient> clients;
  clients.reserve(config.connections);
  for (std::size_t i = 0; i < config.connections; ++i) {
    clients.push_back(serve::ServeClient::connect(host, port));
  }

  LoadResult result;
  std::unordered_map<std::uint64_t, double> sent_at;
  sent_at.reserve(config.requests);
  std::vector<double> latencies;
  latencies.reserve(config.requests);

  const auto start = std::chrono::steady_clock::now();
  std::size_t next = 0;
  std::size_t answered = 0;
  double drain_deadline = -1.0;

  const auto drain_ready = [&](int wait_ms) {
    std::vector<pollfd> pfds;
    pfds.reserve(clients.size());
    for (const serve::ServeClient& client : clients)
      pfds.push_back({client.fd(), POLLIN, 0});
    if (::poll(pfds.data(), pfds.size(), wait_ms) <= 0) return;
    const double now = elapsed_seconds(start);
    for (std::size_t i = 0; i < clients.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      for (const serve::DecideResponsePayload& response :
           clients[i].poll_decisions(0)) {
        ++answered;
        const auto it = sent_at.find(response.request_id);
        const double latency = it == sent_at.end() ? 0.0 : now - it->second;
        switch (response.status) {
          case serve::kDecideOk:
            ++result.decided;
            latencies.push_back(latency);
            break;
          case serve::kDecideShed:
            ++result.shed;
            break;
          default:
            ++result.rejected;
            break;
        }
      }
    }
  };

  while (answered < result.sent || next < config.requests) {
    const double now = elapsed_seconds(start);
    if (next < config.requests && now >= send_at[next]) {
      serve::ServeClient& client = clients[next % clients.size()];
      // Stamp before the send: on a shared CPU the send can wake the
      // server, which may answer before send_decide returns.
      sent_at.emplace(next, elapsed_seconds(start));
      client.send_decide(next, observations[next]);
      ++result.sent;
      ++next;
      continue;
    }
    if (next >= config.requests) {
      // Everything is in flight: give stragglers a bounded drain window,
      // then count the remainder as lost rather than hanging the bench.
      if (drain_deadline < 0.0) drain_deadline = now + drain_timeout_ms / 1000.0;
      if (now >= drain_deadline) break;
      drain_ready(20);
      continue;
    }
    const double until_send = send_at[next] - now;
    drain_ready(until_send > 0.001 ? static_cast<int>(until_send * 1000) : 0);
  }

  result.wall_seconds = elapsed_seconds(start);
  result.lost = result.sent - answered;
  result.achieved_rate =
      result.wall_seconds > 0.0 ? result.decided / result.wall_seconds : 0.0;
  result.shed_rate =
      result.sent > 0 ? static_cast<double>(result.shed) / result.sent : 0.0;
  if (!latencies.empty()) {
    result.p50 = percentile(latencies, 50.0);
    result.p99 = percentile(latencies, 99.0);
    result.p999 = percentile(latencies, 99.9);
  }
  const serve::ServeStatusPayload status = clients.front().status();
  result.server_p50 = status.p50_decision_seconds;
  result.server_p99 = status.p99_decision_seconds;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv,
                     {"host", "port", "state-dim", "action-dim", "hidden",
                      "batch-max", "queue-limit", "connections", "rate",
                      "requests", "seed", "gemm", "out", "drain-timeout-ms"});
  if (args.has("gemm")) nn::set_gemm_backend(args.get("gemm", "auto").c_str());

  LoadConfig config;
  config.state_dim = static_cast<std::size_t>(
      args.get_int("state-dim", static_cast<std::int64_t>(config.state_dim)));
  config.action_dim = static_cast<std::size_t>(
      args.get_int("action-dim", static_cast<std::int64_t>(config.action_dim)));
  config.hidden_dim = static_cast<std::size_t>(
      args.get_int("hidden", static_cast<std::int64_t>(config.hidden_dim)));
  config.batch_max = static_cast<std::size_t>(
      args.get_int("batch-max", static_cast<std::int64_t>(config.batch_max)));
  config.queue_limit = static_cast<std::size_t>(
      args.get_int("queue-limit", static_cast<std::int64_t>(config.queue_limit)));
  config.connections = static_cast<std::size_t>(
      args.get_int("connections", static_cast<std::int64_t>(config.connections)));
  config.offered_rate = args.get_double("rate", config.offered_rate);
  config.requests = static_cast<std::size_t>(
      args.get_int("requests", static_cast<std::int64_t>(config.requests)));
  config.seed = static_cast<std::uint64_t>(
      args.get_int("seed", static_cast<std::int64_t>(config.seed)));
  const std::string out_path = args.get("out", "BENCH_serving.json");
  const int drain_timeout_ms =
      static_cast<int>(args.get_int("drain-timeout-ms", 5000));

  std::string host = args.get("host", "127.0.0.1");
  std::uint16_t port = static_cast<std::uint16_t>(args.get_int("port", 0));

  // No --port: serve a deterministic policy in-process (the self-contained
  // mode the serving regression numbers come from).
  std::unique_ptr<serve::PolicyServer> server;
  if (!args.has("port")) {
    Rng policy_rng(config.seed);
    nn::Mlp policy({config.state_dim, config.hidden_dim, config.hidden_dim,
                    config.action_dim},
                   nn::Activation::LeakyRelu, nn::Activation::Sigmoid, policy_rng);
    serve::PolicyServerConfig server_config;
    server_config.batch_max = config.batch_max;
    server_config.queue_limit = config.queue_limit;
    server_config.poll_ms = 1;
    server = std::make_unique<serve::PolicyServer>(std::move(policy), server_config);
    if (!server->start()) {
      std::fprintf(stderr, "[serve_load] cannot start in-process server\n");
      return 1;
    }
    host = "127.0.0.1";
    port = server->port();
  }

  std::printf("# Policy-serving load: open-loop Poisson at %.0f req/s, "
              "%zu requests over %zu connections -> %s:%u (gemm %s)\n",
              config.offered_rate, config.requests, config.connections,
              host.c_str(), port,
              nn::gemm_backend_name(nn::active_gemm_backend()));

  LoadResult result;
  try {
    result = run_load(host, port, config, drain_timeout_ms);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "[serve_load] %s\n", error.what());
    return 1;
  }

  std::printf("# %-14s %-14s %-10s %-12s %-12s %-12s\n", "offered-req/s",
              "achieved-req/s", "shed-rate", "p50-ms", "p99-ms", "p999-ms");
  std::printf("# %-14.1f %-14.1f %-10.4f %-12.3f %-12.3f %-12.3f\n",
              config.offered_rate, result.achieved_rate, result.shed_rate,
              result.p50 * 1e3, result.p99 * 1e3, result.p999 * 1e3);
  std::printf("# sent %zu, decided %zu, shed %zu, rejected %zu, lost %zu "
              "in %.3f s\n",
              result.sent, result.decided, result.shed, result.rejected,
              result.lost, result.wall_seconds);

  if (server) server->stop();
  if (!write_serving_json(out_path, config, result)) return 2;
  std::printf("# wrote %s\n", out_path.c_str());
  return 0;
}
