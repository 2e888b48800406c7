// The policy-serve daemon core (ctest label: serve).
//
// The contract under test (DESIGN.md "Policy-serving plane"): the daemon
// answers decisions over the ESFR protocol; admission control sheds with
// a 429-style status the instant the bounded queue is full (never by
// slowing everyone down); wrong-dimension observations are rejected with
// a 400-style status; and hostile bytes — truncated frames, corrupt
// CRCs, oversized payloads, unexpected frame types — tear down that one
// connection and never the daemon; and a client that reads slowly is
// throttled, one that stops reading is dropped, and neither costs the
// others their latency. Socket tests hang
// on bugs, so the suite carries hard TIMEOUTs at the ctest level.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/binio.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "ipc/event_loop.h"
#include "ipc/frame.h"
#include "nn/mlp.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace edgeslice::serve {
namespace {

nn::Mlp make_policy(std::uint64_t seed, std::size_t in = 4, std::size_t out = 2) {
  Rng rng(seed);
  return nn::Mlp({in, 16, out}, nn::Activation::LeakyRelu, nn::Activation::Sigmoid,
                 rng);
}

TEST(PolicyServer, StartsOnEphemeralPortAndStopsIdempotently) {
  PolicyServer server(make_policy(1));
  ASSERT_TRUE(server.start());
  EXPECT_TRUE(server.running());
  EXPECT_GT(server.port(), 0);
  server.stop();
  EXPECT_FALSE(server.running());
  server.stop();  // idempotent
}

TEST(PolicyServer, AnswersPingAndStatus) {
  PolicyServerConfig config;
  config.poll_ms = 1;
  config.policy_digest = "0123456789abcdef";
  PolicyServer server(make_policy(2), config);
  ASSERT_TRUE(server.start());

  ServeClient client = ServeClient::connect("127.0.0.1", server.port());
  EXPECT_EQ(client.ping("nonce"), "nonce");

  const ServeStatusPayload status = client.status();
  EXPECT_EQ(status.policy_digest, "0123456789abcdef");
  EXPECT_EQ(status.state_dim, 4u);
  EXPECT_EQ(status.action_dim, 2u);
  EXPECT_EQ(status.queue_depth, 0u);
  EXPECT_EQ(status.decided, 0u);
  server.stop();
}

TEST(PolicyServer, DecidesAndEchoesRequestIds) {
  PolicyServerConfig config;
  config.poll_ms = 1;
  PolicyServer server(make_policy(3), config);
  ASSERT_TRUE(server.start());

  ServeClient client = ServeClient::connect("127.0.0.1", server.port());
  const DecideResponsePayload response =
      client.decide(0xfeedface, {0.1, 0.2, 0.3, 0.4});
  EXPECT_EQ(response.request_id, 0xfeedfaceu);
  EXPECT_EQ(response.status, kDecideOk);
  ASSERT_EQ(response.action.size(), 2u);
  for (double a : response.action) {
    EXPECT_GE(a, 0.0);  // sigmoid head
    EXPECT_LE(a, 1.0);
  }
  const ServeCounters counters = server.counters();
  EXPECT_EQ(counters.decided, 1u);
  EXPECT_EQ(counters.requests, 1u);
  server.stop();
}

TEST(PolicyServer, WrongObservationDimIsRejectedWith400) {
  PolicyServerConfig config;
  config.poll_ms = 1;
  PolicyServer server(make_policy(4), config);
  ASSERT_TRUE(server.start());

  ServeClient client = ServeClient::connect("127.0.0.1", server.port());
  const DecideResponsePayload response = client.decide(1, {0.1, 0.2});  // dim 2 != 4
  EXPECT_EQ(response.status, kDecideBadRequest);
  EXPECT_TRUE(response.action.empty());
  EXPECT_EQ(server.counters().rejected, 1u);
  EXPECT_EQ(server.counters().decided, 0u);
  server.stop();
}

TEST(PolicyServer, ZeroQueueLimitShedsEverythingWith429) {
  // queue_limit 0 is drain mode: admission control rejects every request
  // immediately — the deterministic end of the shed spectrum.
  PolicyServerConfig config;
  config.poll_ms = 1;
  config.queue_limit = 0;
  PolicyServer server(make_policy(5), config);
  ASSERT_TRUE(server.start());

  ServeClient client = ServeClient::connect("127.0.0.1", server.port());
  for (std::uint64_t id = 0; id < 8; ++id) {
    const DecideResponsePayload response =
        client.decide(id, {0.1, 0.2, 0.3, 0.4});
    EXPECT_EQ(response.status, kDecideShed);
    EXPECT_TRUE(response.action.empty());
  }
  EXPECT_EQ(server.counters().shed, 8u);
  EXPECT_EQ(server.counters().decided, 0u);
  server.stop();
}

TEST(PolicyServer, BurstBeyondQueueLimitShedsTheOverflow) {
  // A burst written in one shot against a tiny queue: every request is
  // answered (ok or shed), and at least one lands in each bucket. The
  // exact split depends on tick timing — the invariant is conservation
  // and the presence of shedding, not a specific count.
  PolicyServerConfig config;
  config.poll_ms = 1;
  config.queue_limit = 2;
  config.batch_max = 2;
  PolicyServer server(make_policy(6), config);
  ASSERT_TRUE(server.start());

  ServeClient client = ServeClient::connect("127.0.0.1", server.port());
  constexpr std::uint64_t kBurst = 64;
  for (std::uint64_t id = 0; id < kBurst; ++id) {
    client.send_decide(id, {0.1, 0.2, 0.3, 0.4});
  }
  std::size_t ok = 0, shed = 0;
  std::size_t answered = 0;
  while (answered < kBurst) {
    const auto responses = client.poll_decisions(5000);
    ASSERT_FALSE(responses.empty()) << "server stopped answering";
    for (const DecideResponsePayload& response : responses) {
      ++answered;
      if (response.status == kDecideOk) ++ok;
      if (response.status == kDecideShed) ++shed;
    }
  }
  EXPECT_EQ(ok + shed, kBurst);
  EXPECT_GE(ok, 1u);
  const ServeCounters counters = server.counters();
  EXPECT_EQ(counters.decided, ok);
  EXPECT_EQ(counters.shed, shed);
  server.stop();
}

TEST(PolicyServer, TruncatedDecideRequestTearsDownOnlyThatConnection) {
  PolicyServerConfig config;
  config.poll_ms = 1;
  PolicyServer server(make_policy(7), config);
  ASSERT_TRUE(server.start());

  // A DecideRequest whose payload stops mid-observation: parses as a
  // frame, fails payload decode -> protocol error, connection closed.
  ServeClient hostile = ServeClient::connect("127.0.0.1", server.port());
  std::ostringstream truncated;
  write_u64(truncated, 1);  // request_id
  write_u64(truncated, 4);  // claims 4 doubles...
  write_f64(truncated, 0.5);  // ...delivers 1
  hostile.send_frame(ipc::FrameType::DecideRequest, truncated.str());
  EXPECT_THROW(
      {
        for (;;) hostile.ping("x", 2000);
      },
      std::runtime_error);

  // The daemon survives: a fresh connection still decides.
  ServeClient healthy = ServeClient::connect("127.0.0.1", server.port());
  EXPECT_EQ(healthy.decide(2, {0.1, 0.2, 0.3, 0.4}).status, kDecideOk);
  EXPECT_GE(server.counters().protocol_errors, 1u);
  server.stop();
}

TEST(PolicyServer, CorruptCrcTearsDownOnlyThatConnection) {
  PolicyServerConfig config;
  config.poll_ms = 1;
  PolicyServer server(make_policy(8), config);
  ASSERT_TRUE(server.start());

  ServeClient hostile = ServeClient::connect("127.0.0.1", server.port());
  DecideRequestPayload request;
  request.request_id = 1;
  request.observation = {0.1, 0.2, 0.3, 0.4};
  ipc::Frame frame;
  frame.type = ipc::FrameType::DecideRequest;
  frame.seq = 0;
  frame.payload = encode_decide_request(request);
  std::string bytes = ipc::encode_frame(frame);
  bytes.back() ^= 0x40;  // flip a payload bit: payload CRC now lies
  hostile.send_raw(bytes);
  EXPECT_THROW(
      {
        for (;;) hostile.ping("x", 2000);
      },
      std::runtime_error);

  ServeClient healthy = ServeClient::connect("127.0.0.1", server.port());
  EXPECT_EQ(healthy.decide(2, {0.1, 0.2, 0.3, 0.4}).status, kDecideOk);
  server.stop();
}

TEST(PolicyServer, OversizedFrameHeaderTearsDownOnlyThatConnection) {
  PolicyServerConfig config;
  config.poll_ms = 1;
  PolicyServer server(make_policy(9), config);
  ASSERT_TRUE(server.start());

  // A header claiming a payload beyond the hostile cap: rejected at
  // header decode, before any allocation.
  ServeClient hostile = ServeClient::connect("127.0.0.1", server.port());
  ipc::Frame frame;
  frame.type = ipc::FrameType::DecideRequest;
  frame.seq = 0;
  frame.payload = "x";
  std::string bytes = ipc::encode_frame(frame);
  // payload_len lives at offset 24 (FORMATS.md "ESFR wire frame"):
  // rewrite it to 1 TiB. Header CRC will also mismatch — either way the
  // connection must die cleanly.
  const std::uint64_t huge = 1ull << 40;
  for (int i = 0; i < 8; ++i)
    bytes[24 + i] = static_cast<char>((huge >> (8 * i)) & 0xff);
  hostile.send_raw(bytes);
  EXPECT_THROW(
      {
        for (;;) hostile.ping("x", 2000);
      },
      std::runtime_error);

  ServeClient healthy = ServeClient::connect("127.0.0.1", server.port());
  EXPECT_EQ(healthy.decide(2, {0.1, 0.2, 0.3, 0.4}).status, kDecideOk);
  server.stop();
}

TEST(PolicyServer, UnexpectedFrameTypeTearsDownOnlyThatConnection) {
  PolicyServerConfig config;
  config.poll_ms = 1;
  PolicyServer server(make_policy(10), config);
  ASSERT_TRUE(server.start());

  ServeClient hostile = ServeClient::connect("127.0.0.1", server.port());
  hostile.send_frame(ipc::FrameType::Shutdown, "");
  EXPECT_THROW(
      {
        for (;;) hostile.ping("x", 2000);
      },
      std::runtime_error);

  ServeClient healthy = ServeClient::connect("127.0.0.1", server.port());
  EXPECT_EQ(healthy.decide(2, {0.1, 0.2, 0.3, 0.4}).status, kDecideOk);
  EXPECT_GE(server.counters().protocol_errors, 1u);
  server.stop();
}

TEST(PolicyServer, ManyConnectionsShareOneServer) {
  PolicyServerConfig config;
  config.poll_ms = 1;
  PolicyServer server(make_policy(11), config);
  ASSERT_TRUE(server.start());

  std::vector<ServeClient> clients;
  for (int i = 0; i < 8; ++i) {
    clients.push_back(ServeClient::connect("127.0.0.1", server.port()));
  }
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const DecideResponsePayload response =
        clients[i].decide(i, {0.1, 0.2, 0.3, 0.4});
    EXPECT_EQ(response.status, kDecideOk);
    EXPECT_EQ(response.request_id, i);
  }
  EXPECT_EQ(server.counters().decided, clients.size());
  EXPECT_EQ(server.counters().accepted, clients.size());
  server.stop();
}

double elapsed_ms(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

// Polls `ready` until it returns true (then true) or 30 s pass (false).
template <typename Predicate>
bool wait_for(Predicate ready) {
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!ready()) {
    if (std::chrono::steady_clock::now() >= give_up) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// Flood tests use 128-wide observations and actions: each request and
// each answer is ~1 KiB, so one poll round reads at most ~64 requests
// (PollLoop::kReadBudget) and the answers soon overrun every socket
// buffer between server and client and the loop's high-water mark. The
// flood is large enough that the server must stop reading it before it
// ends; reading it all would queue ~40 MiB of answers.
constexpr std::size_t kFloodWidth = 128;
constexpr std::uint64_t kFlood = 40000;

// Sends kFlood requests from its own thread; stops early when the
// connection fails. Destroying it hangs up first, so a failing test never
// leaves the thread blocked in a send.
class Flood {
 public:
  Flood(ServeClient& client, const std::vector<double>& observation)
      : client_(client), thread_([&client, &observation] {
          try {
            for (std::uint64_t id = 0; id < kFlood; ++id) client.send_decide(id, observation);
          } catch (const std::runtime_error&) {
          }
        }) {}
  Flood(const Flood&) = delete;
  Flood& operator=(const Flood&) = delete;
  ~Flood() { hang_up(); }

  /// Waits for the thread: the flood must end or its connection fail.
  void join() { thread_.join(); }
  /// Shuts the connection down, which fails a send blocked on the
  /// server, and waits for the thread.
  void hang_up() {
    if (!thread_.joinable()) return;
    ::shutdown(client_.fd(), SHUT_RDWR);
    thread_.join();
  }

 private:
  ServeClient& client_;
  std::thread thread_;
};

// Waits until the server has answered every request it read and read
// none for 200 ms.
void wait_until_reading_stops(const PolicyServer& server) {
  std::uint64_t last = server.counters().requests;
  EXPECT_TRUE(wait_for([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    const ServeCounters now = server.counters();
    const bool steady = now.requests == last &&
                        now.requests == now.decided + now.shed + now.rejected;
    last = now.requests;
    return steady;
  }));
}

// Fixes the client's receive buffer at `bytes` (the kernel doubles it),
// so that it cannot grow to absorb the answers the server sends.
void set_receive_buffer(const ServeClient& client, int bytes) {
  ASSERT_EQ(::setsockopt(client.fd(), SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes)), 0);
}

TEST(PolicyServer, StalledReaderIsDroppedWithoutStallingOtherConnections) {
  PolicyServerConfig config;
  config.poll_ms = 1;
  PolicyServer server(make_policy(12, kFloodWidth, kFloodWidth), config);
  ASSERT_TRUE(server.start());
  const std::vector<double> observation(kFloodWidth, 0.25);

  ServeClient stalled = ServeClient::connect("127.0.0.1", server.port());
  set_receive_buffer(stalled, 4096);
  // The flood blocks once the server stops reading it, and ends when the
  // server drops the connection.
  Flood flood(stalled, observation);
  const auto flooded = std::chrono::steady_clock::now();
  // The server stops reading once the unread answers fill every socket
  // buffer and pass the high-water mark; the round trips below run while
  // they sit there.
  wait_until_reading_stops(server);
  EXPECT_LT(server.counters().requests, kFlood);

  // Round trips on a second connection: each must come back well inside
  // the 2 s send deadline.
  ServeClient healthy = ServeClient::connect("127.0.0.1", server.port());
  double slowest_ms = 0.0;
  for (std::uint64_t id = 0; id < 50; ++id) {
    const auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(healthy.decide(id, observation, 1000).status, kDecideOk);
    slowest_ms = std::max(slowest_ms, elapsed_ms(start));
  }
  EXPECT_LE(slowest_ms, 500.0);

  // The stalled connection is torn down once its output has made no
  // progress for the deadline; the healthy one stays.
  const Gauge& connections = global_metrics().gauge("serve.connections");
  ASSERT_TRUE(wait_for([&] { return connections.value() == 1.0; }));
  EXPECT_GE(elapsed_ms(flooded), ipc::PollLoop::kSendDeadlineMs);
  flood.join();
  // Draining what the server's kernel still holds would crawl through the
  // shrunken window; a request on the closed connection draws a reset
  // instead, which the client sees as the connection ending.
  std::uint64_t received = 0;
  bool ended = false;
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  try {
    stalled.send_decide(kFlood, observation);
    while (std::chrono::steady_clock::now() < give_up) {
      received += stalled.poll_decisions(100).size();
    }
  } catch (const std::runtime_error&) {
    ended = true;
  }
  EXPECT_TRUE(ended);
  EXPECT_LT(received, kFlood);
  EXPECT_EQ(healthy.decide(99, observation, 1000).status, kDecideOk);

  // Every request the server read was counted and answered, delivered or
  // not.
  const ServeCounters counters = server.counters();
  EXPECT_GE(counters.requests, 51u);
  EXPECT_EQ(counters.requests, counters.decided + counters.shed + counters.rejected);
  server.stop();
}

TEST(PolicyServer, SlowReaderIsThrottledWithoutStallingOtherConnections) {
  PolicyServerConfig config;
  config.poll_ms = 1;
  PolicyServer server(make_policy(14, kFloodWidth, kFloodWidth), config);
  ASSERT_TRUE(server.start());
  const std::vector<double> observation(kFloodWidth, 0.25);

  // One connection floods requests from its own thread but reads its
  // answers only 16 KiB at a time, ten times a second. Its receive buffer
  // still holds a whole loopback segment, so the server's segments are
  // not dropped and retried with backoff, which could stall its progress
  // past the send deadline.
  ServeClient slow = ServeClient::connect("127.0.0.1", server.port());
  set_receive_buffer(slow, 64 << 10);
  Flood flood(slow, observation);
  wait_until_reading_stops(server);

  // For longer than the send deadline: the slow reader keeps making
  // progress, so it is throttled rather than dropped, and round trips on
  // a second connection stay fast throughout.
  ServeClient healthy = ServeClient::connect("127.0.0.1", server.port());
  const auto start = std::chrono::steady_clock::now();
  std::size_t received = 0;
  std::uint64_t round_trips = 0;
  double slowest_ms = 0.0;
  char chunk[16 << 10];
  while (elapsed_ms(start) < ipc::PollLoop::kSendDeadlineMs + 1000) {
    const ssize_t n = ::recv(slow.fd(), chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n > 0) received += static_cast<std::size_t>(n);
    const auto sent = std::chrono::steady_clock::now();
    EXPECT_EQ(healthy.decide(round_trips++, observation, 1000).status, kDecideOk);
    slowest_ms = std::max(slowest_ms, elapsed_ms(sent));
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  EXPECT_LE(slowest_ms, 500.0);
  EXPECT_GT(received, 0u);
  // Throttled: with its answers unread past the high-water mark, the
  // server stopped reading the flood, so the answers it holds stay
  // bounded.
  EXPECT_LT(server.counters().requests - round_trips, kFlood / 2);
  EXPECT_EQ(global_metrics().gauge("serve.connections").value(), 2.0);
  // Every request read so far is answered once the queue drains (the
  // check must come before the hang-up: requests still queued when a
  // client leaves are never answered).
  EXPECT_TRUE(wait_for([&] {
    const ServeCounters c = server.counters();
    return c.requests == c.decided + c.shed + c.rejected;
  }));

  // Hang up: closing the socket with answers unread resets the
  // connection, which the server drops.
  flood.hang_up();
  { ServeClient closing = std::move(slow); }
  EXPECT_TRUE(wait_for(
      [&] { return global_metrics().gauge("serve.connections").value() == 1.0; }));
  EXPECT_EQ(healthy.decide(round_trips, observation, 1000).status, kDecideOk);
  server.stop();
}

TEST(PolicyServer, ControlFramesOnAnIdleServerDoNotWaitForThePollSlice) {
  // Queued output must be flushed by the poll round that queued it, not
  // after the 5 s idle slice.
  PolicyServerConfig config;
  config.poll_ms = 5000;
  PolicyServer server(make_policy(13), config);
  ASSERT_TRUE(server.start());

  ServeClient client = ServeClient::connect("127.0.0.1", server.port());
  EXPECT_EQ(client.ping("idle", 1000), "idle");
  EXPECT_EQ(client.status(1000).state_dim, 4u);
  EXPECT_EQ(client.ping("again", 1000), "again");
  EXPECT_EQ(client.decide(1, {0.1, 0.2, 0.3, 0.4}, 1000).status, kDecideOk);
  server.stop();
}

}  // namespace
}  // namespace edgeslice::serve
