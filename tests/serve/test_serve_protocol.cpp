// Serve payload codecs (ctest label: serve).
//
// The contract under test (FORMATS.md "Serve payloads"): every payload
// round-trips exactly (doubles as IEEE-754 bit patterns), truncation at
// any field throws a context-naming runtime_error instead of misparsing,
// trailing bytes throw (serve payloads are closed records), hostile
// vector length prefixes are rejected before allocation, and the
// server's in-place DecideResponse frame encoder writes exactly the bytes
// of the reference encoders.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/binio.h"
#include "ipc/event_loop.h"
#include "ipc/frame.h"
#include "serve/protocol.h"

namespace edgeslice::serve {
namespace {

TEST(ServeProtocol, DecideRequestRoundTripsExactly) {
  DecideRequestPayload request;
  request.request_id = 0xdeadbeefcafe0123ull;
  request.observation = {0.0, -1.5, 3.14159, 1e-308, -0.0};

  const DecideRequestPayload got =
      decode_decide_request(encode_decide_request(request));
  EXPECT_EQ(got.request_id, request.request_id);
  ASSERT_EQ(got.observation.size(), request.observation.size());
  for (std::size_t i = 0; i < got.observation.size(); ++i) {
    // Bit-level comparison: -0.0 must survive as -0.0.
    EXPECT_EQ(std::signbit(got.observation[i]), std::signbit(request.observation[i]));
    EXPECT_EQ(got.observation[i], request.observation[i]);
  }
}

TEST(ServeProtocol, DecideResponseRoundTripsEveryStatus) {
  for (std::uint32_t status : {kDecideOk, kDecideBadRequest, kDecideShed}) {
    DecideResponsePayload response;
    response.request_id = 42;
    response.status = status;
    response.action = status == kDecideOk ? std::vector<double>{0.25, 0.75}
                                          : std::vector<double>{};
    const DecideResponsePayload got =
        decode_decide_response(encode_decide_response(response));
    EXPECT_EQ(got.request_id, response.request_id);
    EXPECT_EQ(got.status, status);
    EXPECT_EQ(got.action, response.action);
  }
}

TEST(ServeProtocol, ServeStatusRoundTripsExactly) {
  ServeStatusPayload status;
  status.policy_digest = "9f2a77aa01234567";
  status.state_dim = 8;
  status.action_dim = 3;
  status.batch_max = 64;
  status.queue_limit = 256;
  status.queue_depth = 17;
  status.decided = 1000000;
  status.shed = 123;
  status.rejected = 4;
  status.p50_decision_seconds = 0.00113;
  status.p99_decision_seconds = 0.00987;

  const ServeStatusPayload got = decode_serve_status(encode_serve_status(status));
  EXPECT_EQ(got.policy_digest, status.policy_digest);
  EXPECT_EQ(got.state_dim, status.state_dim);
  EXPECT_EQ(got.action_dim, status.action_dim);
  EXPECT_EQ(got.batch_max, status.batch_max);
  EXPECT_EQ(got.queue_limit, status.queue_limit);
  EXPECT_EQ(got.queue_depth, status.queue_depth);
  EXPECT_EQ(got.decided, status.decided);
  EXPECT_EQ(got.shed, status.shed);
  EXPECT_EQ(got.rejected, status.rejected);
  EXPECT_EQ(got.p50_decision_seconds, status.p50_decision_seconds);
  EXPECT_EQ(got.p99_decision_seconds, status.p99_decision_seconds);
}

TEST(ServeProtocol, TruncationAtEveryByteThrowsInsteadOfMisparse) {
  DecideRequestPayload request;
  request.request_id = 7;
  request.observation = {1.0, 2.0, 3.0};
  const std::string bytes = encode_decide_request(request);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_THROW(decode_decide_request(bytes.substr(0, cut)), std::runtime_error)
        << "cut at " << cut;
  }

  DecideResponsePayload response;
  response.request_id = 7;
  response.status = kDecideOk;
  response.action = {0.5};
  const std::string response_bytes = encode_decide_response(response);
  for (std::size_t cut = 0; cut < response_bytes.size(); ++cut) {
    EXPECT_THROW(decode_decide_response(response_bytes.substr(0, cut)),
                 std::runtime_error)
        << "cut at " << cut;
  }

  const std::string status_bytes = encode_serve_status(ServeStatusPayload{});
  for (std::size_t cut = 0; cut < status_bytes.size(); ++cut) {
    EXPECT_THROW(decode_serve_status(status_bytes.substr(0, cut)),
                 std::runtime_error)
        << "cut at " << cut;
  }
}

TEST(ServeProtocol, TrailingBytesAreCorruptionNotExtensibility) {
  DecideRequestPayload request;
  request.observation = {1.0};
  EXPECT_THROW(decode_decide_request(encode_decide_request(request) + "x"),
               std::runtime_error);
  EXPECT_THROW(
      decode_decide_response(encode_decide_response(DecideResponsePayload{}) + "x"),
      std::runtime_error);
  EXPECT_THROW(decode_serve_status(encode_serve_status(ServeStatusPayload{}) + "x"),
               std::runtime_error);
}

TEST(ServeProtocol, HostileObservationLengthIsRejectedBeforeAllocation) {
  // A request claiming 2^60 doubles must throw on the length prefix, not
  // attempt an exabyte allocation (the length exceeds kMaxObservationDim).
  std::ostringstream out;
  write_u64(out, 1);                      // request_id
  write_u64(out, 1ull << 60);             // hostile vector length
  EXPECT_THROW(decode_decide_request(out.str()), std::runtime_error);
}

double from_bits(std::uint64_t bits) {
  double x = 0.0;
  std::memcpy(&x, &bits, sizeof(x));
  return x;
}

/// The reference bytes: the generic frame encoder over the stream codec.
std::string reference_frame(std::uint64_t seq, const DecideResponsePayload& response) {
  ipc::Frame frame;
  frame.type = ipc::FrameType::DecideResponse;
  frame.ra = ipc::kConnectionScope;
  frame.seq = seq;
  frame.payload = encode_decide_response(response);
  return ipc::encode_frame(frame);
}

TEST(ServeProtocol, AppendedDecideResponseFrameIsByteIdenticalToEncodeFrame) {
  std::vector<double> wide(24);
  for (std::size_t i = 0; i < wide.size(); ++i) wide[i] = 0.1 * static_cast<double>(i) - 1.0;
  wide[0] = 0.0;
  wide[1] = -0.0;
  wide[2] = std::numeric_limits<double>::quiet_NaN();
  wide[3] = from_bits(0xfff8000000000123ull);  // negative NaN with a payload
  wide[4] = std::numeric_limits<double>::denorm_min();
  wide[5] = -from_bits(0x000fffffffffffffull);  // largest subnormal, negated
  wide[6] = std::numeric_limits<double>::infinity();
  wide[7] = std::numeric_limits<double>::max();
  const std::vector<std::vector<double>> actions = {{}, {-0.0}, wide};
  const std::uint64_t seqs[] = {0, 1, (1ull << 63) + 5, ~0ull - 1, ~0ull};
  for (std::uint32_t status : {kDecideOk, kDecideBadRequest, kDecideShed}) {
    for (const std::vector<double>& action : actions) {
      for (std::uint64_t seq : seqs) {
        DecideResponsePayload response;
        response.request_id = seq ^ 0x5a5a5a5a5a5a5a5aull;
        response.status = status;
        response.action = action;
        // Appending after existing bytes must leave them untouched.
        std::string out = "held";
        append_decide_response_frame(out, seq, response);
        EXPECT_EQ(out, "held" + reference_frame(seq, response))
            << "status " << status << ", " << action.size() << " doubles, seq " << seq;
      }
    }
  }
}

TEST(ServeProtocol, AppendedFramesReassembleInSeqOrder) {
  DecideResponsePayload first;
  first.request_id = 7;
  first.action = {0.25, -0.0, 0.75};
  DecideResponsePayload second;
  second.request_id = 8;
  second.status = kDecideShed;

  std::string stream;
  append_decide_response_frame(stream, 0, first);
  append_decide_response_frame(stream, 1, second);
  ipc::append_frame(stream, ipc::FrameType::Pong, ipc::kConnectionScope, 2, "nonce");

  ipc::FrameAssembler assembler;
  const std::vector<ipc::Frame> frames = assembler.feed(stream.data(), stream.size());
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(assembler.pending_bytes(), 0u);
  const DecideResponsePayload got_first = decode_decide_response(frames[0].payload);
  EXPECT_EQ(got_first.request_id, 7u);
  EXPECT_EQ(got_first.status, kDecideOk);
  ASSERT_EQ(got_first.action.size(), 3u);
  EXPECT_TRUE(std::signbit(got_first.action[1]));
  EXPECT_EQ(got_first.action, first.action);
  const DecideResponsePayload got_second = decode_decide_response(frames[1].payload);
  EXPECT_EQ(got_second.request_id, 8u);
  EXPECT_EQ(got_second.status, kDecideShed);
  EXPECT_TRUE(got_second.action.empty());
  EXPECT_EQ(frames[2].type, ipc::FrameType::Pong);
  EXPECT_EQ(frames[2].payload, "nonce");
}

}  // namespace
}  // namespace edgeslice::serve
