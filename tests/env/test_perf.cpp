#include "env/perf.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

namespace edgeslice::env {
namespace {

TEST(QueuePowerPerf, DefaultAlphaIsSquare) {
  QueuePowerPerf perf;  // alpha = 2, the paper's default
  EXPECT_DOUBLE_EQ(perf.evaluate({5.0, 0.0}), -25.0);
  EXPECT_DOUBLE_EQ(perf.evaluate({0.0, 0.0}), 0.0);
}

TEST(QueuePowerPerf, AlphaSweepOrdering) {
  // Fig. 11(a): larger alpha reports worse performance at the same queue.
  const PerfObservation obs{4.0, 0.0};
  double previous = 0.0;
  for (double alpha : {1.0, 1.5, 2.0, 2.5}) {
    const double u = QueuePowerPerf(alpha).evaluate(obs);
    EXPECT_LT(u, previous);
    previous = u;
  }
}

TEST(QueuePowerPerf, AlphaOneIsLinear) {
  QueuePowerPerf perf(1.0);
  EXPECT_DOUBLE_EQ(perf.evaluate({7.0, 0.0}), -7.0);
}

TEST(QueuePowerPerf, InvalidAlphaThrows) {
  EXPECT_THROW(QueuePowerPerf(0.0), std::invalid_argument);
  EXPECT_THROW(QueuePowerPerf(-1.0), std::invalid_argument);
}

TEST(QueuePowerPerf, NegativeQueueClamped) {
  QueuePowerPerf perf;
  EXPECT_DOUBLE_EQ(perf.evaluate({-3.0, 0.0}), 0.0);
}

// The alpha = 2 fast path returns -(q * q) for integer queues below 2^26.
// The exponent is read through a volatile so the compiler cannot fold
// pow(q, 2.0) into q * q and make the reference the fast path itself.
TEST(QueuePowerPerf, SquareIsBitIdenticalToPow) {
  volatile double two_storage = 2.0;
  const double two = two_storage;
  const QueuePowerPerf perf(2.0);
  std::uint64_t mismatches = 0;
  for (std::uint64_t n = 0; n <= (std::uint64_t{1} << 20); ++n) {
    const double q = static_cast<double>(n);
    const double reference = -std::pow(q, two);
    mismatches += -(q * q) != reference;
    mismatches += perf.evaluate({q, 0.0}) != reference;
  }
  EXPECT_EQ(mismatches, 0u);
  // Powers of two and their neighbours up to the bound, and past it.
  for (int e = 20; e <= 30; ++e) {
    for (const double q : {std::ldexp(1.0, e) - 1.0, std::ldexp(1.0, e),
                           std::ldexp(1.0, e) + 1.0}) {
      EXPECT_EQ(perf.evaluate({q, 0.0}), -std::pow(q, two)) << q;
    }
  }
  // Non-integers take pow.
  for (const double q : {0.5, 2.5, 499.75, 1e-300}) {
    EXPECT_EQ(perf.evaluate({q, 0.0}), -std::pow(q, two)) << q;
  }
  EXPECT_TRUE(std::signbit(perf.evaluate({0.0, 0.0})));
}

TEST(QueuePowerPerf, NameEncodesAlpha) {
  EXPECT_NE(QueuePowerPerf(1.5).name().find("1.5"), std::string::npos);
}

TEST(NegServiceTimePerf, IgnoresQueue) {
  NegServiceTimePerf perf;
  EXPECT_DOUBLE_EQ(perf.evaluate({100.0, 2.0}), -2.0);
  EXPECT_DOUBLE_EQ(perf.evaluate({0.0, 2.0}), -2.0);
}

TEST(NegServiceTimePerf, CapKeepsFinite) {
  NegServiceTimePerf perf(10.0);
  EXPECT_DOUBLE_EQ(perf.evaluate({0.0, 1e9}), -10.0);
  EXPECT_THROW(NegServiceTimePerf(0.0), std::invalid_argument);
}

TEST(PerfFactories, ProduceExpectedTypes) {
  const auto qp = make_queue_power_perf(1.5);
  EXPECT_DOUBLE_EQ(qp->evaluate({4.0, 0.0}), -8.0);
  const auto st = make_neg_service_time_perf();
  EXPECT_DOUBLE_EQ(st->evaluate({1.0, 3.0}), -3.0);
}

}  // namespace
}  // namespace edgeslice::env
