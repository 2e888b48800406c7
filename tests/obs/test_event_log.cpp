// Flight-recorder tests: ordering, wraparound, concurrency (the tsan
// preset runs these), JSONL exposition, and the crash-dump path (forked
// subprocesses that die by SIGABRT / std::terminate).
#include "obs/event_log.h"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"

namespace edgeslice::obs {
namespace {

class EventLogTest : public ::testing::Test {
 protected:
  void SetUp() override { set_metrics_enabled(true); }
  void TearDown() override { set_metrics_enabled(true); }
};

Event make_event(EventKind kind, std::size_t period, std::size_t ra,
                 double value = 0.0) {
  Event e;
  e.kind = kind;
  e.period = period;
  e.ra = ra;
  e.value = value;
  return e;
}

TEST_F(EventLogTest, RecordsInOrderWithSequentialSeq) {
  EventLog log(16);
  for (std::size_t p = 0; p < 5; ++p) {
    log.record(make_event(EventKind::RcmDropped, p, p % 2));
  }
  const auto events = log.snapshot();
  ASSERT_EQ(events.size(), 5u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i);
    EXPECT_EQ(events[i].period, i);
    EXPECT_EQ(events[i].kind, EventKind::RcmDropped);
  }
  EXPECT_EQ(log.recorded(), 5u);
}

TEST_F(EventLogTest, RingKeepsOnlyTheMostRecentWindow) {
  EventLog log(8);
  for (std::size_t i = 0; i < 20; ++i) {
    log.record(make_event(EventKind::RclDropped, i, 0, static_cast<double>(i)));
  }
  const auto events = log.snapshot();
  ASSERT_EQ(events.size(), 8u);
  // Oldest-first window of the last 8 appends: seq 12..19.
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(events[i].seq, 12 + i);
    EXPECT_DOUBLE_EQ(events[i].value, static_cast<double>(12 + i));
  }
  EXPECT_EQ(log.recorded(), 20u);
}

TEST_F(EventLogTest, StampsCurrentPeriodOntoUnlabeledEvents) {
  EventLog log(8);
  log.set_period(7);
  Event e;
  e.kind = EventKind::CoordinatorReject;  // writer does not know the period
  log.record(e);
  Event labeled = make_event(EventKind::SlaViolation, 3, Event::kNone);
  log.record(labeled);
  const auto events = log.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].period, 7u);   // filled from set_period
  EXPECT_EQ(events[1].period, 3u);   // explicit label wins
}

TEST_F(EventLogTest, DisabledMetricsMakeRecordANoOp) {
  EventLog log(8);
  set_metrics_enabled(false);
  log.record(make_event(EventKind::RcmDropped, 0, 0));
  set_metrics_enabled(true);
  EXPECT_EQ(log.recorded(), 0u);
  EXPECT_TRUE(log.snapshot().empty());
}

TEST_F(EventLogTest, ClearDropsEventsButKeepsNothingStale) {
  EventLog log(4);
  log.record(make_event(EventKind::RcmDropped, 0, 0));
  log.clear();
  EXPECT_TRUE(log.snapshot().empty());
  log.record(make_event(EventKind::RclDropped, 1, 1));
  const auto events = log.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, EventKind::RclDropped);
}

TEST_F(EventLogTest, KindNamesAndFaultClassification) {
  EXPECT_STREQ(event_kind_name(EventKind::RcmDropped), "rcm.dropped");
  EXPECT_STREQ(event_kind_name(EventKind::SlaViolation), "sla.violation");
  EXPECT_STREQ(event_kind_name(EventKind::FaultRaCrash), "fault.ra_crash");
}

TEST_F(EventLogTest, JsonlEmitsOneObjectPerLineWithNullsForUnknownFields) {
  EventLog log(8);
  log.record(make_event(EventKind::RcmDelayed, 4, 1, 2.0));
  Event partial;
  partial.kind = EventKind::CoordinatorReject;
  partial.value = 3.0;
  log.record(partial);
  std::ostringstream out;
  log.write_jsonl(out);
  const std::string text = out.str();
  // Two lines, each a complete object.
  std::istringstream lines(text);
  std::string line;
  std::vector<std::string> collected;
  while (std::getline(lines, line)) collected.push_back(line);
  ASSERT_EQ(collected.size(), 2u);
  EXPECT_NE(collected[0].find("\"kind\": \"rcm.delayed\""), std::string::npos);
  EXPECT_NE(collected[0].find("\"period\": 4"), std::string::npos);
  EXPECT_NE(collected[0].find("\"ra\": 1"), std::string::npos);
  EXPECT_NE(collected[0].find("\"interval\": null"), std::string::npos);
  EXPECT_NE(collected[1].find("\"kind\": \"coordinator.reject\""), std::string::npos);
  EXPECT_NE(collected[1].find("\"ra\": null"), std::string::npos);
}

TEST_F(EventLogTest, JsonArrayBracketsTheSameObjects) {
  EventLog log(8);
  log.record(make_event(EventKind::RcmDropped, 0, 0));
  std::ostringstream out;
  log.write_json_array(out);
  const std::string text = out.str();
  EXPECT_EQ(text.front(), '[');
  EXPECT_EQ(text.back(), ']');
  EXPECT_NE(text.find("\"kind\": \"rcm.dropped\""), std::string::npos);

  EventLog empty(4);
  std::ostringstream none;
  empty.write_json_array(none);
  EXPECT_EQ(none.str(), "[]");
}

TEST_F(EventLogTest, ConcurrentWritersNeverTearAndKeepAllEvents) {
  // 4 writers x 2000 appends on a ring big enough to hold everything:
  // every event must survive, with all per-writer payloads intact. The
  // tsan preset runs this against the seqlock protocol.
  EventLog log(8192);
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 2000;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&log, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        log.record(make_event(EventKind::RcmDropped, static_cast<std::size_t>(i),
                              static_cast<std::size_t>(w),
                              static_cast<double>(w * kPerWriter + i)));
      }
    });
  }
  // Concurrent reader: snapshots must always be seq-ordered and untorn
  // (payload consistent with the writer that produced the seq).
  std::atomic<bool> done{false};
  std::thread reader([&log, &done] {
    while (!done.load(std::memory_order_acquire)) {
      const auto events = log.snapshot();
      for (std::size_t i = 1; i < events.size(); ++i) {
        ASSERT_LT(events[i - 1].seq, events[i].seq);
      }
      for (const auto& e : events) {
        // value encodes (writer, i); ra must match the writer.
        const auto writer = static_cast<std::size_t>(e.value) / kPerWriter;
        ASSERT_EQ(e.ra, writer);
      }
    }
  });
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  reader.join();

  const auto events = log.snapshot();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kWriters * kPerWriter));
  std::vector<int> per_writer(kWriters, 0);
  for (const auto& e : events) {
    ASSERT_LT(e.ra, static_cast<std::size_t>(kWriters));
    ++per_writer[e.ra];
  }
  for (int w = 0; w < kWriters; ++w) EXPECT_EQ(per_writer[w], kPerWriter);
}

TEST_F(EventLogTest, ConcurrentWritersOnATinyRingStayConsistent) {
  // Heavy lapping: 4 writers x 500 appends on a 16-slot ring. The reader
  // must only ever see untorn slots in seq order.
  EventLog log(16);
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 500;
  std::atomic<bool> done{false};
  std::thread reader([&log, &done] {
    while (!done.load(std::memory_order_acquire)) {
      const auto events = log.snapshot();
      ASSERT_LE(events.size(), 16u);
      for (std::size_t i = 1; i < events.size(); ++i) {
        ASSERT_LT(events[i - 1].seq, events[i].seq);
      }
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&log, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        log.record(make_event(EventKind::RclDropped, static_cast<std::size_t>(i),
                              static_cast<std::size_t>(w)));
      }
    });
  }
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(log.recorded(), static_cast<std::uint64_t>(kWriters * kPerWriter));
  EXPECT_EQ(log.snapshot().size(), 16u);
}

/// Fork, run `in_child` (which must kill the process), and return the
/// child's wait status.
template <typename Fn>
int run_dying_child(Fn in_child) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    in_child();
    ::_exit(0);  // not reached when in_child dies as intended
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  return status;
}

/// Every line must parse as a flat JSON object with the recorder's keys.
void expect_valid_jsonl(const std::string& path, std::size_t expected_events) {
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing dump " << path;
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"seq\": "), std::string::npos);
    EXPECT_NE(line.find("\"kind\": \""), std::string::npos);
    EXPECT_NE(line.find("\"value\": "), std::string::npos);
    ++lines;
  }
  EXPECT_EQ(lines, expected_events);
}

TEST_F(EventLogTest, FatalSignalDumpsCompleteJsonl) {
  const std::string path = ::testing::TempDir() + "event_log_sigabrt.jsonl";
  std::remove(path.c_str());
  const int status = run_dying_child([&path] {
    set_crash_dump_path(path);
    for (std::size_t i = 0; i < 100; ++i) {
      global_event_log().record(
          make_event(EventKind::FaultRaCrash, i, 0, static_cast<double>(i)));
    }
    ::raise(SIGABRT);
  });
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGABRT);  // disposition restored + re-raised
  expect_valid_jsonl(path, 100);
  std::remove(path.c_str());
}

TEST_F(EventLogTest, TerminateHandlerDumpsCompleteJsonl) {
  const std::string path = ::testing::TempDir() + "event_log_terminate.jsonl";
  std::remove(path.c_str());
  const int status = run_dying_child([&path] {
    set_crash_dump_path(path);
    for (std::size_t i = 0; i < 70; ++i) {
      global_event_log().record(make_event(EventKind::RcmDropped, i, 1));
    }
    std::terminate();
  });
  ASSERT_TRUE(WIFSIGNALED(status));
  expect_valid_jsonl(path, 70);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace edgeslice::obs
