#include "ipc/event_loop.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <stdexcept>
#include <utility>

namespace edgeslice::ipc {

namespace {

std::uint32_t stored_payload_crc(const char* header) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i)
    v = (v << 8) | static_cast<std::uint8_t>(header[32 + i]);
  return v;
}

}  // namespace

std::vector<Frame> FrameAssembler::feed(const char* data, std::size_t size) {
  buffer_.append(data, size);
  std::vector<Frame> frames;
  // Frames are parsed at an offset and the consumed prefix dropped once:
  // erasing per frame would move the rest of a chunk of small frames once
  // for each of them.
  std::size_t consumed = 0;
  for (;;) {
    const std::size_t available = buffer_.size() - consumed;
    if (available < kFrameHeaderSize) break;
    const char* header = buffer_.data() + consumed;
    Frame frame;
    std::uint64_t payload_len = 0;
    decode_frame_header(header, frame, payload_len);  // throws
    if (available - kFrameHeaderSize < payload_len) break;
    frame.payload = buffer_.substr(consumed + kFrameHeaderSize,
                                   static_cast<std::size_t>(payload_len));
    verify_frame_payload(stored_payload_crc(header), frame.payload);
    if (frame.seq != next_seq_) {
      throw std::runtime_error("ipc frame: seq break (expected " +
                               std::to_string(next_seq_) + ", got " +
                               std::to_string(frame.seq) + ")");
    }
    ++next_seq_;
    consumed += kFrameHeaderSize + static_cast<std::size_t>(payload_len);
    frames.push_back(std::move(frame));
  }
  buffer_.erase(0, consumed);
  return frames;
}

void PollLoop::add(int fd, FrameHandler on_frame, CloseHandler on_close) {
  if (find(fd) != nullptr)
    throw std::invalid_argument("PollLoop: fd already registered");
  Connection connection;
  connection.fd = fd;
  connection.on_frame = std::move(on_frame);
  connection.on_close = std::move(on_close);
  connections_.push_back(std::move(connection));
}

void PollLoop::remove(int fd) {
  connections_.erase(
      std::remove_if(connections_.begin(), connections_.end(),
                     [fd](const Connection& c) { return c.fd == fd; }),
      connections_.end());
}

bool PollLoop::has(int fd) const {
  for (const Connection& c : connections_) {
    if (c.fd == fd) return true;
  }
  return false;
}

void PollLoop::add_listener(int fd, AcceptHandler on_accept) {
  for (const Listener& l : listeners_) {
    if (l.fd == fd) throw std::invalid_argument("PollLoop: listener already registered");
  }
  Listener listener;
  listener.fd = fd;
  listener.on_accept = std::move(on_accept);
  listeners_.push_back(std::move(listener));
}

void PollLoop::remove_listener(int fd) {
  listeners_.erase(
      std::remove_if(listeners_.begin(), listeners_.end(),
                     [fd](const Listener& l) { return l.fd == fd; }),
      listeners_.end());
}

PollLoop::Connection* PollLoop::find(int fd) {
  for (Connection& c : connections_) {
    if (c.fd == fd) return &c;
  }
  return nullptr;
}

std::string& PollLoop::output(int fd) {
  Connection* connection = find(fd);
  if (connection == nullptr) throw std::invalid_argument("PollLoop: fd not registered");
  return connection->out;
}

bool PollLoop::send_output(Connection& c, std::int64_t now, IoResult& reason) {
  const std::size_t before = c.out_sent;
  while (c.out_sent < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_sent, c.unsent(), MSG_NOSIGNAL);
    if (n > 0) {
      c.out_sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    reason = n < 0 && (errno == EPIPE || errno == ECONNRESET) ? IoResult::Closed
                                                               : IoResult::Error;
    return false;
  }
  const bool progressed = c.out_sent != before;
  if (c.unsent() == 0) {
    c.out.clear();
    c.out_sent = 0;
    c.out_progress_ms = -1;
    return true;
  }
  // Drop the sent prefix only once it is half the buffer: each byte is
  // then moved at most once on average, not once per partial send.
  if (c.out_sent >= c.out.size() / 2) {
    c.out.erase(0, c.out_sent);
    c.out_sent = 0;
  }
  if (progressed || c.out_progress_ms < 0) c.out_progress_ms = now;
  if (now - c.out_progress_ms >= kSendDeadlineMs) {
    reason = IoResult::Deadline;  // the peer stopped reading
    return false;
  }
  return true;
}

void PollLoop::flush() {
  const std::int64_t now = now_ms();
  std::vector<std::pair<int, IoResult>> failed;
  for (Connection& c : connections_) {
    IoResult reason = IoResult::Ok;
    if (c.unsent() != 0 && !send_output(c, now, reason)) failed.emplace_back(c.fd, reason);
  }
  // Close after the scan: a CloseHandler may add or remove connections.
  for (const auto& [fd, reason] : failed) {
    Connection* connection = find(fd);
    if (connection == nullptr) continue;
    const CloseHandler on_close = connection->on_close;
    remove(fd);
    on_close(fd, reason);
  }
}

bool PollLoop::run_until(const std::function<bool()>& done, int deadline_ms) {
  const std::int64_t deadline = now_ms() + deadline_ms;
  char chunk[kReadBudget];
  while (!done()) {
    const std::int64_t remaining = deadline - now_ms();
    if (remaining <= 0) return false;
    // With no listener, an empty connection set can never satisfy done();
    // a listener keeps the loop alive waiting for its first accept.
    if (connections_.empty() && listeners_.empty()) return false;

    std::vector<pollfd> pfds;
    pfds.reserve(listeners_.size() + connections_.size());
    const std::size_t listener_count = listeners_.size();
    for (const Listener& l : listeners_) pfds.push_back({l.fd, POLLIN, 0});
    for (const Connection& c : connections_) {
      short events = POLLIN;
      if (c.unsent() != 0) events |= POLLOUT;
      if (c.unsent() > kOutputHighWater) events = POLLOUT;  // throttle the peer
      pfds.push_back({c.fd, events, 0});
    }
    const int slice = static_cast<int>(remaining > 100 ? 100 : remaining);
    const int ready = ::poll(pfds.data(), pfds.size(), slice);
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("PollLoop: poll failed");
    }
    if (ready == 0) {
      flush();  // retries held output; drops peers past their send deadline
      continue;
    }

    // Listeners first: a freshly accepted connection's first bytes are
    // picked up by the next poll round.
    for (std::size_t i = 0; i < listener_count; ++i) {
      if ((pfds[i].revents & POLLIN) == 0) continue;
      bool still_registered = false;
      AcceptHandler on_accept;
      for (const Listener& l : listeners_) {
        if (l.fd == pfds[i].fd) {
          still_registered = true;
          on_accept = l.on_accept;
          break;
        }
      }
      if (!still_registered) continue;
      for (;;) {
        const int client = ::accept4(pfds[i].fd, nullptr, nullptr, SOCK_NONBLOCK);
        if (client < 0) {
          if (errno == EINTR) continue;
          break;  // EAGAIN (drained) or a transient accept error
        }
        on_accept(client);
      }
    }

    // Service by fd, re-looking each one up: a handler may remove any
    // connection (even the one being serviced) while we iterate.
    for (std::size_t i = listener_count; i < pfds.size(); ++i) {
      const pollfd& pfd = pfds[i];
      if (pfd.revents == 0) continue;
      Connection* connection = find(pfd.fd);
      if (connection == nullptr) continue;
      bool closed = false;
      IoResult reason = IoResult::Closed;
      std::vector<Frame> frames;
      if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        // Drain what is available now, up to kReadBudget: a peer that
        // writes as fast as it is read cannot hold the loop in this
        // round, and the rest is picked up by the next one. EOF/error
        // after data still delivers the data first.
        for (std::size_t budget = kReadBudget; budget > 0;) {
          const ssize_t n = ::read(pfd.fd, chunk, sizeof(chunk));
          if (n > 0) {
            budget -= std::min(budget, static_cast<std::size_t>(n));
            try {
              std::vector<Frame> batch =
                  connection->assembler.feed(chunk, static_cast<std::size_t>(n));
              frames.insert(frames.end(),
                            std::make_move_iterator(batch.begin()),
                            std::make_move_iterator(batch.end()));
            } catch (const std::exception&) {
              closed = true;
              reason = IoResult::Error;  // protocol violation: corrupt channel
              break;
            }
            continue;
          }
          if (n == 0) {
            closed = true;
            reason = IoResult::Closed;
            break;
          }
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          closed = true;
          reason = errno == ECONNRESET ? IoResult::Closed : IoResult::Error;
          break;
        }
      }
      const FrameHandler on_frame = connection->on_frame;
      const CloseHandler on_close = connection->on_close;
      const int fd = pfd.fd;
      for (Frame& frame : frames) {
        if (!has(fd)) break;  // a handler removed this connection
        on_frame(fd, std::move(frame));
      }
      if (closed && has(fd)) {
        remove(fd);
        on_close(fd, reason);
      }
    }
    // Whatever the handlers queued leaves in this round, not after the
    // next poll slice.
    flush();
  }
  return true;
}

}  // namespace edgeslice::ipc
