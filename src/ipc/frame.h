// The ESFR wire frame — the unit of coordinator <-> worker traffic
// (FORMATS.md "ESFR wire frame").
//
// Layout (all integers little-endian, like every on-disk format here):
//
//   offset size field
//   0      4    magic 'E' 'S' 'F' 'R'
//   4      4    u32 version (kFrameFormatVersion)
//   8      4    u32 type (FrameType)
//   12     4    u32 ra (RA index the frame addresses; kConnectionScope
//               for connection-scoped frames)
//   16     8    u64 seq (per-connection send counter, 0, 1, 2, ...)
//   24     8    u64 payload_len
//   32     4    u32 payload_crc (CRC-32 of the payload bytes)
//   36     4    u32 header_crc (CRC-32 of bytes [0, 36))
//   40     -    payload
//
// Payloads are either empty, small binio-serialized structures (wire.h),
// or existing ESCK section blobs verbatim (an EnvState payload's body IS
// an Environment section payload — FORMATS.md cross-links the field
// tables instead of duplicating them). Both CRCs must verify and seq must
// be exactly the previous frame's seq + 1; any violation means the
// channel is corrupt and the connection is torn down, never parsed past.
//
// I/O helpers speak POSIX fds (the supervisor's socketpairs): reads and
// writes are deadline-bounded, EINTR-safe, and handle partial transfers;
// writes additionally retry with bounded exponential backoff while the
// socket buffer is full (a stalled peer surfaces as a SendDeadline
// failure, not a blocked control plane).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace edgeslice::ipc {

inline constexpr char kFrameMagic[4] = {'E', 'S', 'F', 'R'};

/// Wire frame format version. Bump on ANY change to the header layout or
/// a frame payload, and update FORMATS.md in the same commit (the
/// docs-check test cross-checks the two).
inline constexpr std::uint32_t kFrameFormatVersion = 3;

inline constexpr std::size_t kFrameHeaderSize = 40;

/// `ra` value for frames that address the connection, not one RA.
inline constexpr std::uint32_t kConnectionScope = 0xFFFFFFFFu;

/// Hostile-peer cap, checked before any allocation.
inline constexpr std::uint64_t kMaxFramePayload = 1ull << 28;  // 256 MiB

/// Frame types. Codes are part of the wire format: never renumber, only
/// append.
enum class FrameType : std::uint32_t {
  Hello = 1,       // worker -> sup on start: u64 worker index, u64 hosted RA count
  RunPeriod = 2,   // sup -> worker: period directives for its hosted RAs
  Trace = 3,       // worker -> sup: one RA's per-interval steps + actions
  EnvState = 4,    // worker -> sup: one RA's environment blob (ESCK payload)
  Coordination = 5,  // sup -> worker: RC-L z - y vector for one RA
  Ping = 6,        // either direction: u64 nonce
  Pong = 7,        // reply: the same nonce
  Snapshot = 8,    // sup -> worker: request a fresh EnvState for one RA
  Restore = 9,     // sup -> worker: load this blob into one RA's environment
  Ack = 10,        // worker -> sup: Restore applied (u64 code, 0 = ok)
  Shutdown = 11,   // sup -> worker: exit cleanly
  TelemetrySnapshot = 12,  // worker -> sup: cumulative metrics + span deltas
  TelemetryEvents = 13,    // worker -> sup: drained flight-recorder events
  // Policy-serving plane (src/serve/): the same envelope carries
  // allocation-decision traffic between policy-serve and its clients.
  DecideRequest = 14,   // client -> serve: u64 request_id + observation vector
  DecideResponse = 15,  // serve -> client: u64 request_id + u32 status + action
  ServeStatus = 16,     // client -> serve: empty request; reply carries stats
};

const char* frame_type_name(FrameType type);

struct Frame {
  FrameType type = FrameType::Ping;
  std::uint32_t ra = kConnectionScope;
  std::uint64_t seq = 0;
  std::string payload;
};

/// Encode header + payload into one contiguous buffer.
std::string encode_frame(const Frame& frame);

/// Append header + payload to `out`: the bytes encode_frame returns, with
/// no Frame or temporary string (output buffers that batch many frames).
void append_frame(std::string& out, FrameType type, std::uint32_t ra,
                  std::uint64_t seq, std::string_view payload);

/// Two-step append for encoders that write the payload straight into
/// `out`: begin_frame appends a blank header and returns its offset;
/// after the payload bytes are appended, finish_frame fills the header
/// (length and both CRCs) over everything after it.
std::size_t begin_frame(std::string& out);
void finish_frame(std::string& out, std::size_t header_at, FrameType type,
                  std::uint32_t ra, std::uint64_t seq);

/// Decode and fully validate a frame header (40 bytes). Returns the
/// declared payload length via `payload_len`. Throws std::runtime_error
/// on bad magic/version/CRC or an absurd length — the caller must treat
/// the connection as corrupt.
void decode_frame_header(const char* bytes, Frame& out, std::uint64_t& payload_len);

/// Verify a received payload against the header's CRC; throws
/// std::runtime_error on mismatch.
void verify_frame_payload(std::uint32_t expected_crc, const std::string& payload);

// --- Deadline-bounded fd I/O ----------------------------------------------

/// Retry/backoff policy for frame sends. A send attempts the write,
/// polling for writability up to `deadline_ms` total; every EAGAIN round
/// waits poll-side with exponential backoff from `backoff_initial_ms`
/// (doubling, capped at `backoff_max_ms`) and at most `max_attempts`
/// rounds. EINTR never consumes an attempt.
struct SendOptions {
  int deadline_ms = 10000;
  int max_attempts = 8;
  int backoff_initial_ms = 1;
  int backoff_max_ms = 1000;
};

enum class IoResult {
  Ok,
  Deadline,  // peer did not drain (send) or produce (read) in time
  Closed,    // EOF / EPIPE / ECONNRESET: the peer is gone
  Error,     // any other errno
};

const char* io_result_name(IoResult result);

/// Write one whole frame to `fd` (blocking or non-blocking fd) under
/// `options`. Partial writes are resumed; EINTR is retried; SIGPIPE is
/// never raised (writes go through send(MSG_NOSIGNAL) for sockets).
IoResult write_frame(int fd, const Frame& frame, const SendOptions& options = {});

/// Read one whole frame from `fd`, waiting at most `deadline_ms` for the
/// FIRST byte and then at most `deadline_ms` more for the remainder.
/// Returns Ok and fills `out` on success; Closed on clean EOF before any
/// byte; Deadline when the peer stalls mid-frame. Throws
/// std::runtime_error (connection corrupt) on CRC/magic/length
/// violations.
IoResult read_frame(int fd, Frame& out, int deadline_ms);

/// Monotonic clock in milliseconds (steady_clock based) for deadline
/// arithmetic shared by the event loop and the supervisor.
std::int64_t now_ms();

}  // namespace edgeslice::ipc
