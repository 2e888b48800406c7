#include "serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstring>
#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace_span.h"
#include "ipc/event_loop.h"
#include "ipc/frame.h"
#include "rl/batched_actor.h"
#include "serve/protocol.h"

namespace edgeslice::serve {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

PolicyServer::PolicyServer(nn::Mlp policy, PolicyServerConfig config)
    : policy_(std::move(policy)), config_(std::move(config)) {}

PolicyServer::~PolicyServer() { stop(); }

bool PolicyServer::start() {
  if (running()) return true;
  // A client that disconnects with responses in flight must surface as
  // EPIPE from send(2), never kill the process.
  ::signal(SIGPIPE, SIG_IGN);
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    ES_LOG(Warn) << "serve: socket() failed: " << std::strerror(errno);
    return false;
  }
  int reuse = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) != 1) {
    ES_LOG(Warn) << "serve: bad bind address " << config_.bind_address;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(listen_fd_, 256) < 0) {
    ES_LOG(Warn) << "serve: cannot listen on " << config_.bind_address << ":"
                 << config_.port << ": " << std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  // PollLoop drains a ready listener with accept4 until EAGAIN — a
  // blocking listener fd would park the serve thread in the second accept.
  const int listen_flags = ::fcntl(listen_fd_, F_GETFL, 0);
  ::fcntl(listen_fd_, F_SETFL, listen_flags | O_NONBLOCK);
  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  } else {
    port_ = config_.port;
  }
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { serve_loop(); });
  return true;
}

void PolicyServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

ServeCounters PolicyServer::counters() const {
  ServeCounters counters;
  counters.requests = requests_.load(std::memory_order_relaxed);
  counters.decided = decided_.load(std::memory_order_relaxed);
  counters.shed = shed_.load(std::memory_order_relaxed);
  counters.rejected = rejected_.load(std::memory_order_relaxed);
  counters.ticks = ticks_.load(std::memory_order_relaxed);
  counters.accepted = accepted_.load(std::memory_order_relaxed);
  counters.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  return counters;
}

void PolicyServer::serve_loop() {
  // One pending decision: which connection asked (by serial, never by fd:
  // a departed client's fd number can be reused by a later connection),
  // what it asked, when it entered the queue (the decision-latency clock
  // starts at admission).
  struct Pending {
    std::uint64_t connection = 0;
    std::uint64_t request_id = 0;
    std::vector<double> observation;
    std::chrono::steady_clock::time_point enqueued;
  };
  struct Client {
    int fd = -1;
    std::uint64_t out_seq = 0;
  };

  ipc::PollLoop loop;
  std::unordered_map<std::uint64_t, Client> clients;  // by connection serial
  std::uint64_t next_connection = 0;
  std::deque<Pending> queue;
  rl::BatchedActor actor(policy_);
  DecideResponsePayload decision;  // reused: its action buffer stops allocating

  // Every serve.* series resolved once; recording is then one atomic
  // (or, for histograms, one mutex) per event, not a by-name lookup.
  MetricsRegistry& metrics = global_metrics();
  Counter& requests_total = metrics.counter("serve.requests");
  Counter& bad_request_total = metrics.counter("serve.bad_request");
  Counter& shed_total = metrics.counter("serve.shed");
  Counter& decisions_total = metrics.counter("serve.decisions");
  Counter& ticks_total = metrics.counter("serve.ticks");
  Counter& accepted_total = metrics.counter("serve.accepted");
  Counter& protocol_errors_total = metrics.counter("serve.protocol_errors");
  Gauge& connections_gauge = metrics.gauge("serve.connections");
  Gauge& queue_depth_gauge = metrics.gauge("serve.queue_depth");
  Histogram& decision_seconds = metrics.histogram("serve.decision_seconds");
  Histogram& batch_rows = metrics.histogram("serve.batch_rows");

  const auto close_client = [&](std::uint64_t connection) {
    const auto it = clients.find(connection);
    if (it == clients.end()) return;
    const int fd = it->second.fd;
    clients.erase(it);
    if (loop.has(fd)) loop.remove(fd);
    ::close(fd);
    connections_gauge.set(static_cast<double>(clients.size()));
  };

  // Outgoing frames are appended to the connection's output buffer in seq
  // order; the loop's flush sends them (after each tick, and at the end of
  // every poll round that queued any). The loop stops reading a client
  // whose unsent answers pass PollLoop::kOutputHighWater and drops one
  // whose answers make no progress for PollLoop::kSendDeadlineMs.
  const auto queue_frame = [&](Client& client, ipc::FrameType type,
                               const std::string& payload) {
    ipc::append_frame(loop.output(client.fd), type, ipc::kConnectionScope,
                      client.out_seq++, payload);
  };
  const auto answer = [&](Client& client, const DecideResponsePayload& response) {
    append_decide_response_frame(loop.output(client.fd), client.out_seq++, response);
  };

  const auto handle_frame = [&](std::uint64_t connection, Client& client,
                                ipc::Frame&& frame) {
    switch (frame.type) {
      case ipc::FrameType::DecideRequest: {
        DecideRequestPayload request = decode_decide_request(frame.payload);
        requests_.fetch_add(1, std::memory_order_relaxed);
        requests_total.add();
        if (request.observation.size() != policy_.in_dim()) {
          rejected_.fetch_add(1, std::memory_order_relaxed);
          bad_request_total.add();
          answer(client, {request.request_id, kDecideBadRequest, {}});
          break;
        }
        if (queue.size() >= config_.queue_limit) {
          shed_.fetch_add(1, std::memory_order_relaxed);
          shed_total.add();
          answer(client, {request.request_id, kDecideShed, {}});
          break;
        }
        Pending pending;
        pending.connection = connection;
        pending.request_id = request.request_id;
        pending.observation = std::move(request.observation);
        pending.enqueued = std::chrono::steady_clock::now();
        queue.push_back(std::move(pending));
        queue_depth_gauge.set(static_cast<double>(queue.size()));
        break;
      }
      case ipc::FrameType::ServeStatus: {
        ServeStatusPayload status;
        status.policy_digest = config_.policy_digest;
        status.state_dim = policy_.in_dim();
        status.action_dim = policy_.out_dim();
        status.batch_max = config_.batch_max;
        status.queue_limit = config_.queue_limit;
        status.queue_depth = queue.size();
        status.decided = decided_.load(std::memory_order_relaxed);
        status.shed = shed_.load(std::memory_order_relaxed);
        status.rejected = rejected_.load(std::memory_order_relaxed);
        status.p50_decision_seconds = decision_seconds.quantile(0.5);
        status.p99_decision_seconds = decision_seconds.quantile(0.99);
        queue_frame(client, ipc::FrameType::ServeStatus, encode_serve_status(status));
        break;
      }
      case ipc::FrameType::Ping:
        queue_frame(client, ipc::FrameType::Pong, frame.payload);
        break;
      default:
        // Clients have no business sending anything else.
        throw std::runtime_error(std::string("serve: unexpected frame type ") +
                                 ipc::frame_type_name(frame.type));
    }
  };

  loop.add_listener(listen_fd_, [&](int fd) {
    // Responses are small and latency-bound, and each tick's answers to a
    // connection already leave in one write: Nagle would only hold them
    // until the client's delayed ACK (DESIGN.md Sec. 15, "Output path").
    int nodelay = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
    accepted_.fetch_add(1, std::memory_order_relaxed);
    accepted_total.add();
    const std::uint64_t connection = next_connection++;
    clients.emplace(connection, Client{fd, 0});
    connections_gauge.set(static_cast<double>(clients.size()));
    loop.add(
        fd,
        [&, connection](int, ipc::Frame&& frame) {
          // A frame that parses as a frame but not as a serve payload is
          // a protocol violation: tear down this connection only.
          try {
            handle_frame(connection, clients.at(connection), std::move(frame));
          } catch (const std::exception& error) {
            protocol_errors_.fetch_add(1, std::memory_order_relaxed);
            protocol_errors_total.add();
            ES_LOG(Warn) << "serve: " << error.what();
            close_client(connection);
          }
        },
        [&, connection](int, ipc::IoResult reason) {
          if (reason == ipc::IoResult::Error) {
            protocol_errors_.fetch_add(1, std::memory_order_relaxed);
            protocol_errors_total.add();
          }
          close_client(connection);
        });
  });

  while (!stop_.load(std::memory_order_acquire)) {
    loop.run_until(
        [&] { return stop_.load(std::memory_order_acquire) || !queue.empty(); },
        config_.poll_ms);
    if (queue.empty()) continue;

    // One batched forward pass per tick: every queued request up to
    // batch_max rides the same GEMMs.
    const std::size_t rows =
        queue.size() < config_.batch_max ? queue.size() : config_.batch_max;
    actor.begin(rows);
    for (std::size_t row = 0; row < rows; ++row) {
      actor.set_state(row, queue[row].observation);
    }
    {
      auto span = global_tracer().span("serve.tick");
      actor.infer();
      span.stop();
    }
    ticks_.fetch_add(1, std::memory_order_relaxed);
    ticks_total.add();
    batch_rows.observe(static_cast<double>(rows));
    for (std::size_t row = 0; row < rows; ++row) {
      const Pending& pending = queue[row];
      const auto client = clients.find(pending.connection);
      if (client == clients.end()) continue;  // client left
      // Count before the response leaves: a client that has its answer
      // must never read a ServeStatus/counters() that predates it.
      decided_.fetch_add(1, std::memory_order_relaxed);
      decisions_total.add();
      decision_seconds.observe(seconds_since(pending.enqueued));
      decision.request_id = pending.request_id;
      decision.status = kDecideOk;
      actor.action_into(row, decision.action);
      answer(client->second, decision);
    }
    queue.erase(queue.begin(), queue.begin() + static_cast<std::ptrdiff_t>(rows));
    queue_depth_gauge.set(static_cast<double>(queue.size()));
    // One write per connection for the whole tick's answers.
    loop.flush();
  }

  loop.remove_listener(listen_fd_);
  loop.flush();  // answers already decided leave if their sockets take them
  std::vector<std::uint64_t> open;
  open.reserve(clients.size());
  for (const auto& [connection, client] : clients) open.push_back(connection);
  for (std::uint64_t connection : open) close_client(connection);
}

}  // namespace edgeslice::serve
