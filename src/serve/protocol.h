// Policy-serving payload codecs (FORMATS.md Sec. 7.3, serve payloads).
//
// The policy-serve daemon answers allocation-decision requests over the
// existing ESFR framed protocol (src/ipc/frame.h): three append-only
// frame types — DecideRequest, DecideResponse, ServeStatus — carry the
// payloads below. Everything is binio-serialized (little-endian, doubles
// as exact IEEE-754 bit patterns), so a decision that crosses the wire
// is byte-for-byte the vector Agent::act would have returned in-process.
//
// Decoders are strict both ways: a truncated payload throws (read_* fail
// on short reads) and so do trailing bytes — a serve payload is exactly
// its specified fields, nothing more. Hostile length prefixes are capped
// before allocation (kMaxObservationDim).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace edgeslice::serve {

/// Decision status codes, deliberately HTTP-shaped so an operator reading
/// a shed counter or a log line needs no translation table.
inline constexpr std::uint32_t kDecideOk = 0;
inline constexpr std::uint32_t kDecideBadRequest = 400;  // wrong observation dim
inline constexpr std::uint32_t kDecideShed = 429;        // admission control

/// Hostile-input cap on a request's observation length, checked before
/// any allocation. Real observations are tens of doubles (state Eq. 13).
inline constexpr std::uint64_t kMaxObservationDim = 1u << 20;

/// DecideRequest (client -> serve): one observation to decide on.
/// `request_id` is opaque to the server and echoed back verbatim —
/// clients use it to match in-flight requests to responses.
struct DecideRequestPayload {
  std::uint64_t request_id = 0;
  std::vector<double> observation;
};

/// DecideResponse (serve -> client). `action` is the policy's allocation
/// vector when `status` == kDecideOk and empty otherwise.
struct DecideResponsePayload {
  std::uint64_t request_id = 0;
  std::uint32_t status = kDecideOk;
  std::vector<double> action;
};

/// ServeStatus (serve -> client, answering an empty ServeStatus request):
/// the daemon's identity and live serving stats.
struct ServeStatusPayload {
  std::string policy_digest;  // 16 lowercase hex chars (agent-cache address)
  std::uint64_t state_dim = 0;
  std::uint64_t action_dim = 0;
  std::uint64_t batch_max = 0;
  std::uint64_t queue_limit = 0;
  std::uint64_t queue_depth = 0;
  std::uint64_t decided = 0;   // DecideResponse(kDecideOk) sent, lifetime
  std::uint64_t shed = 0;      // kDecideShed sent
  std::uint64_t rejected = 0;  // kDecideBadRequest sent
  /// Decision-latency quantiles (enqueue -> response encode) from the
  /// serve.decision_seconds histogram; 0 while metrics are disabled.
  double p50_decision_seconds = 0.0;
  double p99_decision_seconds = 0.0;
};

std::string encode_decide_request(const DecideRequestPayload& payload);
DecideRequestPayload decode_decide_request(const std::string& bytes);

std::string encode_decide_response(const DecideResponsePayload& payload);
DecideResponsePayload decode_decide_response(const std::string& bytes);

/// Append one connection-scoped DecideResponse frame with sequence `seq`
/// to `out`, header and payload written in place: the bytes of
/// ipc::encode_frame over encode_decide_response(payload), with no
/// Frame, string or stream per response (the server's output path).
void append_decide_response_frame(std::string& out, std::uint64_t seq,
                                  const DecideResponsePayload& payload);

std::string encode_serve_status(const ServeStatusPayload& payload);
ServeStatusPayload decode_serve_status(const std::string& bytes);

}  // namespace edgeslice::serve
