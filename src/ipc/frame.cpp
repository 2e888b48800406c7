#include "ipc/frame.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "common/binio.h"
#include "common/metrics.h"

namespace edgeslice::ipc {

namespace {

void put_u32(char* p, std::uint32_t v) {
  p[0] = static_cast<char>(v & 0xFF);
  p[1] = static_cast<char>((v >> 8) & 0xFF);
  p[2] = static_cast<char>((v >> 16) & 0xFF);
  p[3] = static_cast<char>((v >> 24) & 0xFF);
}

void put_u64(char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
}

std::uint32_t get_u32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | static_cast<std::uint8_t>(p[i]);
  return v;
}

std::uint64_t get_u64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | static_cast<std::uint8_t>(p[i]);
  return v;
}

/// send(2) with MSG_NOSIGNAL when the fd is a socket, falling back to
/// write(2) for pipes/files (ENOTSOCK). SIGPIPE is additionally ignored
/// process-wide by the supervisor, so either path is EPIPE, not death.
ssize_t write_some(int fd, const char* data, std::size_t size) {
  const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
  if (n < 0 && errno == ENOTSOCK) return ::write(fd, data, size);
  return n;
}

}  // namespace

const char* frame_type_name(FrameType type) {
  switch (type) {
    case FrameType::Hello: return "hello";
    case FrameType::RunPeriod: return "run_period";
    case FrameType::Trace: return "trace";
    case FrameType::EnvState: return "env_state";
    case FrameType::Coordination: return "coordination";
    case FrameType::Ping: return "ping";
    case FrameType::Pong: return "pong";
    case FrameType::Snapshot: return "snapshot";
    case FrameType::Restore: return "restore";
    case FrameType::Ack: return "ack";
    case FrameType::Shutdown: return "shutdown";
    case FrameType::TelemetrySnapshot: return "telemetry_snapshot";
    case FrameType::TelemetryEvents: return "telemetry_events";
    case FrameType::DecideRequest: return "decide_request";
    case FrameType::DecideResponse: return "decide_response";
    case FrameType::ServeStatus: return "serve_status";
  }
  return "unknown";
}

const char* io_result_name(IoResult result) {
  switch (result) {
    case IoResult::Ok: return "ok";
    case IoResult::Deadline: return "deadline";
    case IoResult::Closed: return "closed";
    case IoResult::Error: return "error";
  }
  return "unknown";
}

std::string encode_frame(const Frame& frame) {
  std::string out;
  out.reserve(kFrameHeaderSize + frame.payload.size());
  append_frame(out, frame.type, frame.ra, frame.seq, frame.payload);
  return out;
}

void append_frame(std::string& out, FrameType type, std::uint32_t ra,
                  std::uint64_t seq, std::string_view payload) {
  const std::size_t header_at = begin_frame(out);
  out.append(payload);
  finish_frame(out, header_at, type, ra, seq);
}

std::size_t begin_frame(std::string& out) {
  const std::size_t header_at = out.size();
  out.resize(header_at + kFrameHeaderSize);
  return header_at;
}

void finish_frame(std::string& out, std::size_t header_at, FrameType type,
                  std::uint32_t ra, std::uint64_t seq) {
  char* h = out.data() + header_at;
  const std::size_t payload_size = out.size() - header_at - kFrameHeaderSize;
  std::memcpy(h, kFrameMagic, 4);
  put_u32(h + 4, kFrameFormatVersion);
  put_u32(h + 8, static_cast<std::uint32_t>(type));
  put_u32(h + 12, ra);
  put_u64(h + 16, seq);
  put_u64(h + 24, payload_size);
  put_u32(h + 32, crc32(h + kFrameHeaderSize, payload_size));
  put_u32(h + 36, crc32(h, 36));
}

void decode_frame_header(const char* bytes, Frame& out, std::uint64_t& payload_len) {
  if (std::memcmp(bytes, kFrameMagic, 4) != 0)
    throw std::runtime_error("ipc frame: bad magic");
  const std::uint32_t header_crc = get_u32(bytes + 36);
  if (crc32(bytes, 36) != header_crc)
    throw std::runtime_error("ipc frame: header CRC mismatch");
  const std::uint32_t version = get_u32(bytes + 4);
  if (version != kFrameFormatVersion)
    throw std::runtime_error("ipc frame: unsupported version " +
                             std::to_string(version));
  out.type = static_cast<FrameType>(get_u32(bytes + 8));
  out.ra = get_u32(bytes + 12);
  out.seq = get_u64(bytes + 16);
  payload_len = get_u64(bytes + 24);
  if (payload_len > kMaxFramePayload)
    throw std::runtime_error("ipc frame: absurd payload length " +
                             std::to_string(payload_len));
}

void verify_frame_payload(std::uint32_t expected_crc, const std::string& payload) {
  if (crc32(payload) != expected_crc)
    throw std::runtime_error("ipc frame: payload CRC mismatch");
}

std::int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

IoResult write_frame(int fd, const Frame& frame, const SendOptions& options) {
  const std::string bytes = encode_frame(frame);
  const std::int64_t deadline = now_ms() + options.deadline_ms;
  std::size_t sent = 0;
  int attempts = 0;
  int backoff_ms = options.backoff_initial_ms;
  // Workers run with metrics disabled (the registry mutex is not
  // fork-safe against the parent's observer threads); guard every touch.
  const bool counted = metrics_enabled();
  while (sent < bytes.size()) {
    const ssize_t n = write_some(fd, bytes.data() + sent, bytes.size() - sent);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;  // never consumes an attempt
    if (n < 0 && (errno == EPIPE || errno == ECONNRESET)) return IoResult::Closed;
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) return IoResult::Error;
    // Socket buffer full (or a zero-byte write): bounded retry with
    // exponential backoff, waiting poll-side for writability.
    if (++attempts >= options.max_attempts) return IoResult::Deadline;
    if (counted) global_metrics().counter("ipc.send_retries").add();
    const std::int64_t remaining = deadline - now_ms();
    if (remaining <= 0) return IoResult::Deadline;
    pollfd pfd{fd, POLLOUT, 0};
    const int wait =
        static_cast<int>(remaining < backoff_ms ? remaining : backoff_ms);
    const int ready = ::poll(&pfd, 1, wait);
    if (ready < 0 && errno != EINTR) return IoResult::Error;
    if (ready > 0 && (pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
        (pfd.revents & POLLOUT) == 0) {
      return IoResult::Closed;
    }
    backoff_ms = backoff_ms * 2 < options.backoff_max_ms ? backoff_ms * 2
                                                         : options.backoff_max_ms;
  }
  if (counted) {
    global_metrics().counter("ipc.frames_sent").add();
    global_metrics().counter("ipc.bytes_sent").add(bytes.size());
  }
  return IoResult::Ok;
}

namespace {

/// Read exactly `size` bytes with a wall-clock deadline; EINTR-safe.
/// Returns Ok, Deadline, Closed (EOF mid-buffer counts as Closed), Error.
IoResult read_exact(int fd, char* data, std::size_t size, std::int64_t deadline) {
  std::size_t got = 0;
  while (got < size) {
    const std::int64_t remaining = deadline - now_ms();
    if (remaining <= 0) return IoResult::Deadline;
    pollfd pfd{fd, POLLIN, 0};
    const int ready =
        ::poll(&pfd, 1, static_cast<int>(remaining > 1000 ? 1000 : remaining));
    if (ready < 0) {
      if (errno == EINTR) continue;
      return IoResult::Error;
    }
    if (ready == 0) continue;  // poll slice elapsed; re-check the deadline
    const ssize_t n = ::read(fd, data + got, size - got);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) return IoResult::Closed;
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
    if (errno == ECONNRESET) return IoResult::Closed;
    return IoResult::Error;
  }
  return IoResult::Ok;
}

}  // namespace

IoResult read_frame(int fd, Frame& out, int deadline_ms) {
  char header[kFrameHeaderSize];
  const std::int64_t header_deadline = now_ms() + deadline_ms;
  const IoResult head = read_exact(fd, header, kFrameHeaderSize, header_deadline);
  if (head != IoResult::Ok) return head;
  std::uint64_t payload_len = 0;
  decode_frame_header(header, out, payload_len);  // throws on corruption
  const std::uint32_t payload_crc = get_u32(header + 32);
  out.payload.assign(static_cast<std::size_t>(payload_len), '\0');
  if (payload_len > 0) {
    const IoResult body = read_exact(fd, out.payload.data(),
                                     static_cast<std::size_t>(payload_len),
                                     now_ms() + deadline_ms);
    // A peer that died or stalled mid-frame can never resynchronize.
    if (body != IoResult::Ok) return body == IoResult::Deadline ? body : IoResult::Closed;
  }
  verify_frame_payload(payload_crc, out.payload);  // throws on corruption
  if (metrics_enabled()) {
    global_metrics().counter("ipc.frames_received").add();
    global_metrics().counter("ipc.bytes_received").add(kFrameHeaderSize +
                                                       out.payload.size());
  }
  return IoResult::Ok;
}

}  // namespace edgeslice::ipc
