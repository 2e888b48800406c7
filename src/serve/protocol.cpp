#include "serve/protocol.h"

#include <cstring>
#include <sstream>
#include <stdexcept>

#include "common/binio.h"
#include "ipc/frame.h"

namespace edgeslice::serve {

namespace {

/// Serve payloads are closed records: anything after the last field is
/// corruption, not extensibility (append a new frame type instead).
void require_exhausted(std::istream& in, const char* context) {
  if (in.peek() != std::istream::traits_type::eof()) {
    throw std::runtime_error(std::string(context) + ": trailing bytes");
  }
}

/// Little-endian store of the low `bytes` bytes of `v` (binio's layout).
char* put_le(char* p, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  return p + bytes;
}

}  // namespace

std::string encode_decide_request(const DecideRequestPayload& payload) {
  std::ostringstream out;
  write_u64(out, payload.request_id);
  write_f64_vector(out, payload.observation);
  return out.str();
}

DecideRequestPayload decode_decide_request(const std::string& bytes) {
  std::istringstream in(bytes);
  DecideRequestPayload payload;
  payload.request_id = read_u64(in, "decide_request request_id");
  payload.observation =
      read_f64_vector(in, "decide_request observation", kMaxObservationDim);
  require_exhausted(in, "decide_request");
  return payload;
}

std::string encode_decide_response(const DecideResponsePayload& payload) {
  std::ostringstream out;
  write_u64(out, payload.request_id);
  write_u32(out, payload.status);
  write_f64_vector(out, payload.action);
  return out.str();
}

void append_decide_response_frame(std::string& out, std::uint64_t seq,
                                  const DecideResponsePayload& payload) {
  const std::size_t header_at = ipc::begin_frame(out);
  const std::size_t payload_at = out.size();
  out.resize(payload_at + 8 + 4 + 8 + 8 * payload.action.size());
  char* p = out.data() + payload_at;
  p = put_le(p, payload.request_id, 8);
  p = put_le(p, payload.status, 4);
  p = put_le(p, payload.action.size(), 8);
  for (double x : payload.action) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof(bits));
    p = put_le(p, bits, 8);
  }
  ipc::finish_frame(out, header_at, ipc::FrameType::DecideResponse,
                    ipc::kConnectionScope, seq);
}

DecideResponsePayload decode_decide_response(const std::string& bytes) {
  std::istringstream in(bytes);
  DecideResponsePayload payload;
  payload.request_id = read_u64(in, "decide_response request_id");
  payload.status = read_u32(in, "decide_response status");
  payload.action =
      read_f64_vector(in, "decide_response action", kMaxObservationDim);
  require_exhausted(in, "decide_response");
  return payload;
}

std::string encode_serve_status(const ServeStatusPayload& payload) {
  std::ostringstream out;
  write_string(out, payload.policy_digest);
  write_u64(out, payload.state_dim);
  write_u64(out, payload.action_dim);
  write_u64(out, payload.batch_max);
  write_u64(out, payload.queue_limit);
  write_u64(out, payload.queue_depth);
  write_u64(out, payload.decided);
  write_u64(out, payload.shed);
  write_u64(out, payload.rejected);
  write_f64(out, payload.p50_decision_seconds);
  write_f64(out, payload.p99_decision_seconds);
  return out.str();
}

ServeStatusPayload decode_serve_status(const std::string& bytes) {
  std::istringstream in(bytes);
  ServeStatusPayload payload;
  payload.policy_digest = read_string(in, "serve_status policy_digest", 1u << 10);
  payload.state_dim = read_u64(in, "serve_status state_dim");
  payload.action_dim = read_u64(in, "serve_status action_dim");
  payload.batch_max = read_u64(in, "serve_status batch_max");
  payload.queue_limit = read_u64(in, "serve_status queue_limit");
  payload.queue_depth = read_u64(in, "serve_status queue_depth");
  payload.decided = read_u64(in, "serve_status decided");
  payload.shed = read_u64(in, "serve_status shed");
  payload.rejected = read_u64(in, "serve_status rejected");
  payload.p50_decision_seconds = read_f64(in, "serve_status p50");
  payload.p99_decision_seconds = read_f64(in, "serve_status p99");
  require_exhausted(in, "serve_status");
  return payload;
}

}  // namespace edgeslice::serve
