// Reference FIFO service queue of one network slice (Sec. VI-B).
//
// RaEnvironment keeps all of its slices' queues as structure-of-arrays
// state and updates them inline in step(). This one-object-per-queue form
// is the specification that state is checked against
// (tests/env/test_queue.cpp replays an environment's arrivals and service
// rates into it and compares every field, every step).
//
// Tasks are homogeneous within a slice (one application profile per
// slice). Service progress is tracked as fractional credit so that a
// service rate of, say, 2.5 tasks/interval departs 2 or 3 tasks per
// interval with the correct long-run average.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>

namespace edgeslice::env {

class SliceQueue {
 public:
  /// `max_length` bounds the backlog (arrivals beyond it are dropped and
  /// counted), keeping rewards finite when a slice is starved.
  explicit SliceQueue(std::size_t max_length = 500) : max_length_(max_length) {
    if (max_length == 0) throw std::invalid_argument("SliceQueue: zero max length");
  }

  /// Add `count` arriving tasks; returns how many were admitted.
  std::size_t arrive(std::size_t count) {
    total_arrivals_ += count;
    const std::size_t admitted = std::min(count, max_length_ - length_);
    length_ += admitted;
    dropped_ += count - admitted;
    return admitted;
  }

  /// Serve the queue for one interval at the given service rate
  /// (tasks per interval); returns the number of departures.
  std::size_t serve(double rate) {
    if (rate < 0.0) throw std::invalid_argument("SliceQueue::serve: negative rate");
    if (length_ == 0) {
      // Service capacity is not bankable while idle.
      credit_ = 0.0;
      return 0;
    }
    credit_ += rate;
    const auto departures = std::min(length_, static_cast<std::size_t>(std::floor(credit_)));
    credit_ -= static_cast<double>(departures);
    length_ -= departures;
    total_departures_ += departures;
    if (length_ == 0) credit_ = 0.0;
    return departures;
  }

  std::size_t length() const { return length_; }
  std::size_t dropped() const { return dropped_; }
  std::size_t total_arrivals() const { return total_arrivals_; }
  std::size_t total_departures() const { return total_departures_; }
  bool empty() const { return length_ == 0; }
  /// Fractional service carry-over.
  double credit() const { return credit_; }

  void reset() { *this = SliceQueue(max_length_); }

 private:
  std::size_t max_length_;
  std::size_t length_ = 0;
  double credit_ = 0.0;
  std::size_t dropped_ = 0;
  std::size_t total_arrivals_ = 0;
  std::size_t total_departures_ = 0;
};

}  // namespace edgeslice::env
