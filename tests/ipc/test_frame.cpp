// ESFR wire-frame codec and deadline-bounded fd I/O (ctest label: ipc).
//
// The contract under test (FORMATS.md "ESFR wire frame"): both CRC
// levels and strict seq monotonicity are enforced before a frame is
// surfaced, corruption tears the connection down instead of being parsed
// past, and the fd helpers survive partial transfers, full socket
// buffers (bounded backoff, then a Deadline verdict) and dead peers
// (Closed, never SIGPIPE). PollLoop's per-connection output buffers send
// in append order without blocking, stop reading a peer whose unsent
// output passes the high-water mark, and drop a peer that stops reading
// after the send deadline.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/binio.h"
#include "ipc/event_loop.h"
#include "ipc/frame.h"
#include "ipc/wire.h"

namespace edgeslice::ipc {
namespace {

Frame make_frame(FrameType type, std::uint64_t seq, std::string payload,
                 std::uint32_t ra = kConnectionScope) {
  Frame frame;
  frame.type = type;
  frame.ra = ra;
  frame.seq = seq;
  frame.payload = std::move(payload);
  return frame;
}

/// A connected socketpair that closes whatever the test leaves open.
struct SocketPair {
  int fds[2] = {-1, -1};
  SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0); }
  ~SocketPair() {
    if (fds[0] >= 0) ::close(fds[0]);
    if (fds[1] >= 0) ::close(fds[1]);
  }
  void close_reader() {
    ::close(fds[1]);
    fds[1] = -1;
  }
};

// ---- codec ----------------------------------------------------------------

TEST(FrameCodec, RoundTripPreservesEveryField) {
  const Frame sent = make_frame(FrameType::Trace, 7, "trace payload bytes", 3);
  const std::string bytes = encode_frame(sent);
  ASSERT_EQ(bytes.size(), kFrameHeaderSize + sent.payload.size());

  Frame got;
  std::uint64_t payload_len = 0;
  decode_frame_header(bytes.data(), got, payload_len);
  EXPECT_EQ(got.type, FrameType::Trace);
  EXPECT_EQ(got.ra, 3u);
  EXPECT_EQ(got.seq, 7u);
  EXPECT_EQ(payload_len, sent.payload.size());
  // Payload CRC travels in the header; the body verifies against it.
  const std::string body = bytes.substr(kFrameHeaderSize);
  EXPECT_NO_THROW(verify_frame_payload(crc32(sent.payload), body));
}

TEST(FrameCodec, EmptyPayloadRoundTrips) {
  const std::string bytes = encode_frame(make_frame(FrameType::Ping, 0, ""));
  ASSERT_EQ(bytes.size(), kFrameHeaderSize);
  Frame got;
  std::uint64_t payload_len = 1;
  decode_frame_header(bytes.data(), got, payload_len);
  EXPECT_EQ(payload_len, 0u);
}

TEST(FrameCodec, HeaderCorruptionIsDetected) {
  const std::string clean = encode_frame(make_frame(FrameType::Hello, 0, "x"));
  // Every header byte is covered by either the magic check or header_crc.
  for (std::size_t i = 0; i < kFrameHeaderSize; ++i) {
    std::string bytes = clean;
    bytes[i] = static_cast<char>(bytes[i] ^ 0x40);
    Frame got;
    std::uint64_t payload_len = 0;
    EXPECT_THROW(decode_frame_header(bytes.data(), got, payload_len),
                 std::runtime_error)
        << "flip at offset " << i;
  }
}

TEST(FrameCodec, PayloadCorruptionIsDetected) {
  const std::string payload = "the payload under protection";
  std::string tampered = payload;
  tampered[5] = static_cast<char>(tampered[5] ^ 1);
  EXPECT_THROW(verify_frame_payload(crc32(payload), tampered), std::runtime_error);
  EXPECT_NO_THROW(verify_frame_payload(crc32(payload), payload));
}

TEST(FrameCodec, HostilePayloadLengthIsRejectedBeforeAllocation) {
  // Craft a header that passes both magic and CRC but declares an absurd
  // payload length: patch the length field, then recompute header_crc the
  // way a hostile (or differently-versioned) peer could.
  std::string bytes = encode_frame(make_frame(FrameType::Ping, 0, ""));
  const std::uint64_t huge = kMaxFramePayload + 1;
  std::memcpy(&bytes[24], &huge, sizeof(huge));  // payload_len, little-endian host
  const std::uint32_t header_crc = crc32(bytes.data(), 36);
  std::memcpy(&bytes[36], &header_crc, sizeof(header_crc));
  Frame got;
  std::uint64_t payload_len = 0;
  EXPECT_THROW(decode_frame_header(bytes.data(), got, payload_len),
               std::runtime_error);
}

// ---- assembler ------------------------------------------------------------

TEST(FrameAssembler, ReassemblesByteByByteDelivery) {
  const Frame first = make_frame(FrameType::RunPeriod, 0, "first body", 1);
  const Frame second = make_frame(FrameType::Coordination, 1, "", 2);
  const std::string stream = encode_frame(first) + encode_frame(second);

  FrameAssembler assembler;
  std::vector<Frame> out;
  for (char byte : stream) {
    for (Frame& frame : assembler.feed(&byte, 1)) out.push_back(std::move(frame));
  }
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].type, FrameType::RunPeriod);
  EXPECT_EQ(out[0].payload, "first body");
  EXPECT_EQ(out[1].type, FrameType::Coordination);
  EXPECT_EQ(out[1].seq, 1u);
  EXPECT_EQ(assembler.pending_bytes(), 0u);
}

TEST(FrameAssembler, KeepsAPartialFrameAfterWholeOnesInOneChunk) {
  const std::string third = encode_frame(make_frame(FrameType::Pong, 2, "third body"));
  const std::string chunk = encode_frame(make_frame(FrameType::Ping, 0, "a")) +
                            encode_frame(make_frame(FrameType::Ping, 1, "")) +
                            third.substr(0, kFrameHeaderSize + 3);
  FrameAssembler assembler;
  const std::vector<Frame> whole = assembler.feed(chunk.data(), chunk.size());
  ASSERT_EQ(whole.size(), 2u);
  EXPECT_EQ(whole[0].payload, "a");
  EXPECT_EQ(whole[1].seq, 1u);
  EXPECT_EQ(assembler.pending_bytes(), kFrameHeaderSize + 3);

  const std::string rest = third.substr(kFrameHeaderSize + 3);
  const std::vector<Frame> last = assembler.feed(rest.data(), rest.size());
  ASSERT_EQ(last.size(), 1u);
  EXPECT_EQ(last[0].seq, 2u);
  EXPECT_EQ(last[0].payload, "third body");
  EXPECT_EQ(assembler.pending_bytes(), 0u);
}

TEST(FrameAssembler, SequenceBreakTearsTheConnectionDown) {
  FrameAssembler assembler;
  const std::string ok = encode_frame(make_frame(FrameType::Ping, 0, ""));
  EXPECT_EQ(assembler.feed(ok.data(), ok.size()).size(), 1u);
  // seq 2 after seq 0: a frame was lost; parsing past it would desync
  // every later payload boundary.
  const std::string skipped = encode_frame(make_frame(FrameType::Ping, 2, ""));
  EXPECT_THROW(assembler.feed(skipped.data(), skipped.size()), std::runtime_error);
}

TEST(FrameAssembler, CorruptBytesMidStreamThrow) {
  FrameAssembler assembler;
  std::string bytes = encode_frame(make_frame(FrameType::Ping, 0, "abc"));
  bytes[kFrameHeaderSize + 1] ^= 0x10;  // payload flip
  EXPECT_THROW(assembler.feed(bytes.data(), bytes.size()), std::runtime_error);
}

// ---- fd I/O ---------------------------------------------------------------

TEST(FrameIo, SocketRoundTrip) {
  SocketPair pair;
  const Frame sent = make_frame(FrameType::EnvState, 4, std::string(100000, 'e'), 9);
  ASSERT_EQ(write_frame(pair.fds[0], sent), IoResult::Ok);
  Frame got;
  ASSERT_EQ(read_frame(pair.fds[1], got, 2000), IoResult::Ok);
  EXPECT_EQ(got.type, sent.type);
  EXPECT_EQ(got.ra, sent.ra);
  EXPECT_EQ(got.seq, sent.seq);
  EXPECT_EQ(got.payload, sent.payload);
}

TEST(FrameIo, ReadDeadlineOnSilentPeer) {
  SocketPair pair;
  Frame got;
  EXPECT_EQ(read_frame(pair.fds[1], got, 50), IoResult::Deadline);
}

TEST(FrameIo, ReadClosedOnEof) {
  SocketPair pair;
  ::close(pair.fds[0]);
  pair.fds[0] = -1;
  Frame got;
  EXPECT_EQ(read_frame(pair.fds[1], got, 1000), IoResult::Closed);
}

TEST(FrameIo, TruncatedFrameSurfacesAsClosed) {
  SocketPair pair;
  const std::string bytes =
      encode_frame(make_frame(FrameType::Restore, 0, "half of this never arrives"));
  // Header + a sliver of payload, then the peer dies.
  ASSERT_EQ(::write(pair.fds[0], bytes.data(), kFrameHeaderSize + 4),
            static_cast<ssize_t>(kFrameHeaderSize + 4));
  ::close(pair.fds[0]);
  pair.fds[0] = -1;
  Frame got;
  EXPECT_EQ(read_frame(pair.fds[1], got, 1000), IoResult::Closed);
}

TEST(FrameIo, WriteBacksOffThenReportsDeadlineWhenPeerNeverDrains) {
  SocketPair pair;
  const int small = 4096;
  ASSERT_EQ(::setsockopt(pair.fds[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small)), 0);
  // Non-blocking, as the supervisor's sockets are: a full buffer must
  // surface as EAGAIN + backoff, not a blocked send().
  ASSERT_EQ(::fcntl(pair.fds[0], F_SETFL,
                    ::fcntl(pair.fds[0], F_GETFL, 0) | O_NONBLOCK), 0);
  SendOptions options;
  options.deadline_ms = 200;
  options.max_attempts = 3;
  options.backoff_initial_ms = 1;
  options.backoff_max_ms = 8;
  // Nobody reads fds[1]: the buffers fill, the send path polls with
  // bounded backoff, and the verdict is Deadline — not a hang, not a
  // partial silent success.
  const Frame big = make_frame(FrameType::EnvState, 0, std::string(1 << 20, 'b'));
  IoResult last = IoResult::Ok;
  for (std::uint64_t seq = 0; seq < 64 && last == IoResult::Ok; ++seq) {
    Frame frame = big;
    frame.seq = seq;
    last = write_frame(pair.fds[0], frame, options);
  }
  EXPECT_EQ(last, IoResult::Deadline);
}

TEST(FrameIo, WriteToDeadPeerIsClosedNotSigpipe) {
  SocketPair pair;
  pair.close_reader();
  // Two writes: the first may succeed into the kernel buffer of a
  // half-dead socket; the second must observe EPIPE. Either way the
  // process must survive (MSG_NOSIGNAL) — the test failing by signal IS
  // the regression.
  const Frame frame = make_frame(FrameType::Ping, 0, std::string(1 << 16, 'p'));
  IoResult result = write_frame(pair.fds[0], frame);
  if (result == IoResult::Ok) {
    Frame second = frame;
    second.seq = 1;
    result = write_frame(pair.fds[0], second);
  }
  EXPECT_EQ(result, IoResult::Closed);
}

// ---- PollLoop output buffers ---------------------------------------------

void set_nonblocking(int fd) {
  ASSERT_EQ(::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK), 0);
}

TEST(PollLoopOutput, FlushSendsQueuedFramesInAppendOrder) {
  SocketPair pair;
  set_nonblocking(pair.fds[0]);
  PollLoop loop;
  loop.add(pair.fds[0], [](int, Frame&&) {}, [](int, IoResult) {});
  for (std::uint64_t seq = 0; seq < 3; ++seq) {
    append_frame(loop.output(pair.fds[0]), FrameType::Pong, kConnectionScope, seq,
                 "pong " + std::to_string(seq));
  }
  loop.flush();
  EXPECT_TRUE(loop.output(pair.fds[0]).empty());
  for (std::uint64_t seq = 0; seq < 3; ++seq) {
    Frame got;
    ASSERT_EQ(read_frame(pair.fds[1], got, 1000), IoResult::Ok);
    EXPECT_EQ(got.seq, seq);
    EXPECT_EQ(got.payload, "pong " + std::to_string(seq));
  }
  EXPECT_THROW(loop.output(pair.fds[1]), std::invalid_argument);
}

TEST(PollLoopOutput, StalledPeerIsClosedWithDeadlineWithoutBlocking) {
  SocketPair pair;
  set_nonblocking(pair.fds[0]);
  PollLoop loop;
  std::optional<IoResult> closed;
  loop.add(pair.fds[0], [](int, Frame&&) {}, [&](int, IoResult reason) { closed = reason; });
  // Far more than the socketpair buffers hold, and nobody reads fds[1].
  append_frame(loop.output(pair.fds[0]), FrameType::EnvState, kConnectionScope, 0,
               std::string(8 << 20, 's'));
  const std::int64_t start = now_ms();
  loop.flush();
  ASSERT_FALSE(closed.has_value());
  EXPECT_FALSE(loop.output(pair.fds[0]).empty());
  // The loop's own idle rounds retry the held bytes and enforce the
  // deadline; flush() never blocks on the full socket.
  EXPECT_TRUE(loop.run_until([&] { return closed.has_value(); },
                             PollLoop::kSendDeadlineMs + 3000));
  EXPECT_EQ(*closed, IoResult::Deadline);
  EXPECT_FALSE(loop.has(pair.fds[0]));
  EXPECT_GE(now_ms() - start, PollLoop::kSendDeadlineMs);
}

TEST(PollLoopOutput, PeerAboveHighWaterIsNotReadUntilItDrains) {
  SocketPair pair;
  set_nonblocking(pair.fds[0]);
  set_nonblocking(pair.fds[1]);
  const int fd = pair.fds[0];
  PollLoop loop;
  std::uint64_t handled = 0;
  std::uint64_t out_seq = 0;
  const std::string answer(64 << 10, 'a');
  std::optional<IoResult> closed;
  loop.add(
      fd,
      [&](int, Frame&&) {
        ++handled;
        append_frame(loop.output(fd), FrameType::Pong, kConnectionScope, out_seq++, answer);
      },
      [&](int, IoResult reason) { closed = reason; });

  // Twice the high-water mark in answers: past it even after the socket
  // buffers take their share.
  const std::uint64_t burst = 2 * PollLoop::kOutputHighWater / answer.size();
  for (std::uint64_t seq = 0; seq < burst; ++seq) {
    ASSERT_EQ(write_frame(pair.fds[1], make_frame(FrameType::Ping, seq, "q")), IoResult::Ok);
  }
  ASSERT_TRUE(loop.run_until([&] { return handled == burst; }, 1000));

  // While the peer reads nothing, its next request stays unread.
  ASSERT_EQ(write_frame(pair.fds[1], make_frame(FrameType::Ping, burst, "q")), IoResult::Ok);
  EXPECT_FALSE(loop.run_until([&] { return handled > burst; }, 200));
  EXPECT_EQ(handled, burst);

  // Once the peer drains, the loop reads and answers it.
  FrameAssembler assembler;
  std::uint64_t received = 0;
  char chunk[65536];
  const std::int64_t give_up = now_ms() + 5000;
  while (received < burst + 1 && now_ms() < give_up) {
    ssize_t n = 0;
    while ((n = ::read(pair.fds[1], chunk, sizeof(chunk))) > 0) {
      received += assembler.feed(chunk, static_cast<std::size_t>(n)).size();
    }
    loop.run_until([] { return false; }, 1);
  }
  EXPECT_EQ(received, burst + 1);
  EXPECT_EQ(handled, burst + 1);
  EXPECT_FALSE(closed.has_value());
  EXPECT_TRUE(loop.has(fd));
}

TEST(PollLoopOutput, OutputToDeadPeerClosesTheConnection) {
  SocketPair pair;
  set_nonblocking(pair.fds[0]);
  pair.close_reader();
  PollLoop loop;
  std::optional<IoResult> closed;
  loop.add(pair.fds[0], [](int, Frame&&) {}, [&](int, IoResult reason) { closed = reason; });
  append_frame(loop.output(pair.fds[0]), FrameType::Ping, kConnectionScope, 0, "x");
  loop.flush();  // EPIPE, never SIGPIPE
  ASSERT_TRUE(closed.has_value());
  EXPECT_EQ(*closed, IoResult::Closed);
  EXPECT_FALSE(loop.has(pair.fds[0]));
}

// ---- payload codecs -------------------------------------------------------

TEST(WireCodec, RunPeriodDirectivesRoundTrip) {
  RunPeriodPayload payload;
  payload.period = 12;
  payload.ras = {1, 3};
  core::RaPeriodDirective run;
  run.run = true;
  run.has_derate = true;
  run.derate = {0.5, 1.0, 0.25};
  core::RaPeriodDirective skip;
  skip.run = false;
  skip.stall_ms = 40;
  skip.abort_run = true;
  payload.directives = {run, skip};

  const RunPeriodPayload got = decode_run_period(encode_run_period(payload));
  EXPECT_EQ(got.period, 12u);
  EXPECT_EQ(got.ras, payload.ras);
  ASSERT_EQ(got.directives.size(), 2u);
  EXPECT_TRUE(got.directives[0].run);
  EXPECT_TRUE(got.directives[0].has_derate);
  EXPECT_EQ(got.directives[0].derate, run.derate);
  EXPECT_FALSE(got.directives[1].run);
  EXPECT_EQ(got.directives[1].stall_ms, 40u);
  EXPECT_TRUE(got.directives[1].abort_run);
  // The supervisor-side physical action never crosses the wire.
  EXPECT_EQ(got.directives[1].fault, ProcessFaultKind::None);
}

TEST(WireCodec, TraceRoundTripIsExact) {
  TracePayload payload;
  payload.period = 3;
  payload.trace.ran = true;
  env::StepResult step;
  step.state = {0.125, -2.5};
  step.next_state = {1.0, 3.0};
  step.reward = -17.25;
  step.performance = {-8.5, -0.25};
  step.queue_lengths = {4.0, 0.0};
  step.service_rates = {2.5, 3.5};
  step.constraint_violation = 0.75;
  payload.trace.steps = {step};
  payload.trace.actions = {{0.1, 0.9, 0.4}};

  const TracePayload got = decode_trace(encode_trace(payload));
  EXPECT_EQ(got.period, 3u);
  ASSERT_TRUE(got.trace.ran);
  ASSERT_EQ(got.trace.steps.size(), 1u);
  // Doubles as bit patterns: equality must be exact, not approximate.
  EXPECT_EQ(got.trace.steps[0].state, step.state);
  EXPECT_EQ(got.trace.steps[0].next_state, step.next_state);
  EXPECT_EQ(got.trace.steps[0].reward, step.reward);
  EXPECT_EQ(got.trace.steps[0].performance, step.performance);
  EXPECT_EQ(got.trace.steps[0].queue_lengths, step.queue_lengths);
  EXPECT_EQ(got.trace.steps[0].service_rates, step.service_rates);
  EXPECT_EQ(got.trace.steps[0].constraint_violation, step.constraint_violation);
  EXPECT_EQ(got.trace.actions, payload.trace.actions);
}

TEST(WireCodec, HelloAndCoordinationRoundTrip) {
  HelloPayload hello;
  hello.worker_index = 2;
  hello.hosted_ras = {2, 5, 8};
  const HelloPayload hello_got = decode_hello(encode_hello(hello));
  EXPECT_EQ(hello_got.worker_index, 2u);
  EXPECT_EQ(hello_got.hosted_ras, hello.hosted_ras);

  CoordinationPayload coordination;
  coordination.period = 9;
  coordination.z_minus_y = {-0.5, 0.0, 12.25};
  const CoordinationPayload coordination_got =
      decode_coordination(encode_coordination(coordination));
  EXPECT_EQ(coordination_got.period, 9u);
  EXPECT_EQ(coordination_got.z_minus_y, coordination.z_minus_y);

  EXPECT_EQ(decode_u64(encode_u64(0xDEADBEEFull), "test"), 0xDEADBEEFull);
  EXPECT_THROW(decode_u64("abc", "test"), std::runtime_error);
}

TEST(WireCodec, TruncatedPayloadsThrowInsteadOfMisparse) {
  RunPeriodPayload payload;
  payload.period = 1;
  payload.ras = {0};
  payload.directives = {core::RaPeriodDirective{}};
  const std::string bytes = encode_run_period(payload);
  EXPECT_THROW(decode_run_period(bytes.substr(0, bytes.size() / 2)),
               std::runtime_error);
  const std::string hello = encode_hello(HelloPayload{1, {1, 2}});
  EXPECT_THROW(decode_hello(hello.substr(0, hello.size() - 1)), std::runtime_error);
}

TEST(WireCodec, TelemetryEventKindOutOfRangeThrows) {
  TelemetryEventsPayload payload;
  payload.events.resize(2);
  payload.events[0].kind = obs::EventKind::RcmDropped;
  payload.events[1].kind = obs::kLastEventKind;
  payload.events[1].value = 3.5;
  std::string bytes = encode_telemetry_events(payload);
  const TelemetryEventsPayload got = decode_telemetry_events(bytes);
  ASSERT_EQ(got.events.size(), 2u);
  EXPECT_EQ(got.events[1].kind, obs::kLastEventKind);
  EXPECT_EQ(got.events[1].value, 3.5);
  // Layout: u64 count, then per event seven u64/f64 fields, the u8 kind
  // and an f64 value (65 bytes).
  const std::size_t second_kind = 8 + 65 + 7 * 8;
  ASSERT_EQ(static_cast<std::uint8_t>(bytes[second_kind]),
            static_cast<std::uint8_t>(obs::kLastEventKind));
  bytes[second_kind] = static_cast<char>(0xFF);
  EXPECT_THROW(decode_telemetry_events(bytes), std::runtime_error);
  bytes[second_kind] = static_cast<char>(static_cast<std::uint8_t>(obs::kLastEventKind) + 1);
  EXPECT_THROW(decode_telemetry_events(bytes), std::runtime_error);
}

}  // namespace
}  // namespace edgeslice::ipc
