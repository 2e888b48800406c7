// A small poll(2)-based event loop multiplexing the supervisor's worker
// sockets and the policy server's client connections.
//
// Each registered fd gets a FrameAssembler that turns the fd's byte
// stream back into validated frames (partial reads are buffered across
// poll rounds; both CRCs and strict seq monotonicity are enforced before
// a frame is surfaced). The loop is deliberately single-threaded and
// deadline-driven: run_until() pumps all fds until the caller's
// predicate is satisfied or the deadline passes, which is exactly the
// "collect traces from every worker, declare stragglers hung" shape the
// supervisor needs — a stalled worker costs the deadline, never a
// blocked control plane.
//
// Each connection also owns an output buffer. Callers append frames to
// it (output()) and flush() sends what the socket takes without
// blocking; the loop polls POLLOUT only while a buffer holds bytes and
// flushes at the end of every poll round. A slow peer costs only its own
// connection: while its unsent output exceeds kOutputHighWater the loop
// stops reading from it (so it cannot queue answers without bound), and
// once that output makes no progress for kSendDeadlineMs the loop closes
// it. The others are never stalled.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ipc/frame.h"

namespace edgeslice::ipc {

/// Incremental frame reassembly for one connection's byte stream.
/// feed() throws std::runtime_error on any protocol violation (bad
/// magic/CRC/version, absurd length, seq break) — the connection is
/// corrupt and must be torn down.
class FrameAssembler {
 public:
  /// Append raw bytes; returns every frame completed by them, in order.
  std::vector<Frame> feed(const char* data, std::size_t size);

  /// Bytes buffered waiting for the rest of a frame.
  std::size_t pending_bytes() const { return buffer_.size(); }

 private:
  std::string buffer_;
  std::uint64_t next_seq_ = 0;
};

class PollLoop {
 public:
  using FrameHandler = std::function<void(int fd, Frame&& frame)>;
  /// Invoked once when the connection ends: Closed on EOF (or a reset
  /// peer), Error on an I/O error or protocol violation, Deadline when
  /// its output made no progress for kSendDeadlineMs. The fd is
  /// already removed from the loop when the handler runs (the caller
  /// owns closing it).
  using CloseHandler = std::function<void(int fd, IoResult reason)>;
  /// Invoked once per accepted connection. The new fd is already
  /// non-blocking; the handler decides whether to add() it to the loop
  /// (and owns closing it if not).
  using AcceptHandler = std::function<void(int fd)>;

  /// How long a connection's unsent output may make no progress (the
  /// peer stopped reading) before the loop closes it.
  static constexpr int kSendDeadlineMs = 2000;
  /// Unsent output above which the loop stops reading a connection until
  /// its peer drains some: a slow reader is throttled, and what it can
  /// make the loop buffer stays bounded.
  static constexpr std::size_t kOutputHighWater = std::size_t{1} << 20;
  /// Most bytes read from one connection in one poll round.
  static constexpr std::size_t kReadBudget = std::size_t{64} << 10;

  void add(int fd, FrameHandler on_frame, CloseHandler on_close);
  void remove(int fd);
  bool has(int fd) const;
  std::size_t size() const { return connections_.size(); }

  /// The output buffer of registered connection `fd` (throws
  /// std::invalid_argument otherwise). Append whole frames; they leave
  /// in append order, and only through a non-blocking fd can a full
  /// socket not stall the loop. The buffer may still hold a prefix that
  /// was already sent (it is dropped once it is half the buffer, or when
  /// everything is sent), so only append to it. The reference is valid
  /// until the next add() or remove().
  std::string& output(int fd);

  /// Send as much of every connection's buffered output as its socket
  /// takes now, without blocking. A connection whose peer is gone, or
  /// whose output made no progress for kSendDeadlineMs, is removed and
  /// its CloseHandler runs.
  void flush();

  /// Register a listening socket: while the loop runs, readiness on it
  /// accepts every pending connection (accept4 with SOCK_NONBLOCK) and
  /// hands each new fd to `on_accept`. The policy-serve daemon is the
  /// consumer; the supervisor's fixed socketpair fan-in never needs one.
  void add_listener(int fd, AcceptHandler on_accept);
  void remove_listener(int fd);

  /// Pump all registered fds until `done()` returns true or `deadline_ms`
  /// elapses. Returns true when the predicate was satisfied, false on
  /// deadline. Handlers run inline and may call remove() (including for
  /// the fd currently being serviced). Every poll round ends with a
  /// flush(), so output queued by a handler leaves in the same round.
  bool run_until(const std::function<bool()>& done, int deadline_ms);

 private:
  struct Connection {
    int fd = -1;
    FrameAssembler assembler;
    FrameHandler on_frame;
    CloseHandler on_close;
    std::string out;
    /// Bytes at the front of `out` already sent.
    std::size_t out_sent = 0;
    /// Last time `out` drained some bytes or was first found waiting;
    /// -1 while it is empty.
    std::int64_t out_progress_ms = -1;

    std::size_t unsent() const { return out.size() - out_sent; }
  };
  struct Listener {
    int fd = -1;
    AcceptHandler on_accept;
  };

  Connection* find(int fd);
  /// Send what `c.out` holds; false (with `reason`) when it must close.
  static bool send_output(Connection& c, std::int64_t now, IoResult& reason);

  std::vector<Connection> connections_;
  std::vector<Listener> listeners_;
};

}  // namespace edgeslice::ipc
