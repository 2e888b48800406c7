#include "slice_queue.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "env/environment.h"
#include "env/service_model.h"

namespace edgeslice::env {
namespace {

TEST(SliceQueue, StartsEmpty) {
  SliceQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.length(), 0u);
}

TEST(SliceQueue, ZeroCapacityThrows) {
  EXPECT_THROW(SliceQueue(0), std::invalid_argument);
}

TEST(SliceQueue, ArrivalsAccumulate) {
  SliceQueue q;
  EXPECT_EQ(q.arrive(5), 5u);
  EXPECT_EQ(q.arrive(3), 3u);
  EXPECT_EQ(q.length(), 8u);
  EXPECT_EQ(q.total_arrivals(), 8u);
}

TEST(SliceQueue, DropsBeyondMaxLength) {
  SliceQueue q(10);
  EXPECT_EQ(q.arrive(15), 10u);
  EXPECT_EQ(q.length(), 10u);
  EXPECT_EQ(q.dropped(), 5u);
}

TEST(SliceQueue, IntegerServiceRate) {
  SliceQueue q;
  q.arrive(10);
  EXPECT_EQ(q.serve(3.0), 3u);
  EXPECT_EQ(q.length(), 7u);
  EXPECT_EQ(q.total_departures(), 3u);
}

TEST(SliceQueue, FractionalRateAveragesOut) {
  SliceQueue q;
  q.arrive(100);
  std::size_t total = 0;
  for (int i = 0; i < 10; ++i) total += q.serve(2.5);
  EXPECT_EQ(total, 25u);  // credit accumulates exactly
}

TEST(SliceQueue, ServeNeverExceedsBacklog) {
  SliceQueue q;
  q.arrive(2);
  EXPECT_EQ(q.serve(100.0), 2u);
  EXPECT_TRUE(q.empty());
}

TEST(SliceQueue, CreditNotBankableWhileIdle) {
  SliceQueue q;
  for (int i = 0; i < 10; ++i) EXPECT_EQ(q.serve(5.0), 0u);
  q.arrive(10);
  // No stored credit from the idle intervals: first serve yields exactly 5.
  EXPECT_EQ(q.serve(5.0), 5u);
}

TEST(SliceQueue, CreditClearsWhenDrained) {
  SliceQueue q;
  q.arrive(1);
  q.serve(5.0);  // drains; residual credit must not persist
  q.arrive(1);
  EXPECT_EQ(q.serve(0.4), 0u);  // only 0.4 credit now
}

TEST(SliceQueue, NegativeRateThrows) {
  SliceQueue q;
  EXPECT_THROW(q.serve(-1.0), std::invalid_argument);
}

TEST(SliceQueue, ResetClearsEverything) {
  SliceQueue q(10);
  q.arrive(20);
  q.serve(2.0);
  q.reset();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.dropped(), 0u);
  EXPECT_EQ(q.total_arrivals(), 0u);
  EXPECT_EQ(q.total_departures(), 0u);
}

// Property sweep: long-run departure rate equals min(arrival, service)
// across service rates, and conservation holds exactly.
class QueueRateSweep : public ::testing::TestWithParam<double> {};

TEST_P(QueueRateSweep, LongRunThroughputAndConservation) {
  const double service_rate = GetParam();
  const double arrival_rate = 5.0;
  SliceQueue q(100000);
  std::size_t admitted = 0;
  std::size_t departed = 0;
  const int intervals = 4000;
  for (int t = 0; t < intervals; ++t) {
    admitted += q.arrive(static_cast<std::size_t>(arrival_rate));
    departed += q.serve(service_rate);
  }
  EXPECT_EQ(admitted, departed + q.length());
  const double throughput = static_cast<double>(departed) / intervals;
  EXPECT_NEAR(throughput, std::min(arrival_rate, service_rate),
              0.05 * arrival_rate + 0.1)
      << "service rate " << service_rate;
}

INSTANTIATE_TEST_SUITE_P(Rates, QueueRateSweep,
                         ::testing::Values(0.5, 1.3, 2.5, 4.9, 5.0, 7.7, 25.0));

TEST(SliceQueue, ConservationInvariant) {
  // arrivals admitted = departures + still queued.
  SliceQueue q(50);
  std::size_t admitted = 0;
  std::size_t departed = 0;
  for (int i = 0; i < 100; ++i) {
    admitted += q.arrive(static_cast<std::size_t>(i % 7));
    departed += q.serve(2.7);
  }
  EXPECT_EQ(admitted, departed + q.length());
}

// The environment's structure-of-arrays queues against the reference: step
// a seeded environment, replay each slice's offered arrivals and granted
// service rate into a SliceQueue, and compare all five fields every step.
// Slice 1 is starved behind a short bound, so it drops; slice 0 is lightly
// loaded and well served, so it drains and forfeits its credit.
TEST(SliceQueue, EnvironmentQueuesMatchTheReferenceStepByStep) {
  RaEnvironmentConfig config;
  config.max_queue = 40;
  const auto model = std::make_shared<DirectServiceModel>(prototype_capacity());
  RaEnvironment environment(config, {slice1_profile(), slice2_profile()}, model,
                            make_queue_power_perf(), Rng(11));
  environment.set_arrival_rates({2.0, 9.0});
  std::vector<SliceQueue> reference(2, SliceQueue(config.max_queue));
  Rng actions(5);
  StepResult result;
  std::size_t drop_steps = 0;
  std::size_t idle_steps = 0;
  std::size_t fractional_steps = 0;
  for (int t = 0; t < 400; ++t) {
    std::vector<double> action(6);
    for (std::size_t k = 0; k < 3; ++k) {
      action[k] = actions.uniform(0.3, 1.0);      // slice 0: well served
      action[3 + k] = actions.uniform(0.0, 0.1);  // slice 1: starved
    }
    const QueueState before[2] = {environment.queue(0), environment.queue(1)};
    environment.step_into(action, result);
    for (std::size_t i = 0; i < 2; ++i) {
      const QueueState after = environment.queue(i);
      SliceQueue& ref = reference[i];
      ref.arrive(after.arrivals - before[i].arrivals);
      ref.serve(result.service_rates[i]);
      ASSERT_EQ(after.length, ref.length()) << "slice " << i << " step " << t;
      ASSERT_EQ(after.credit, ref.credit()) << "slice " << i << " step " << t;
      ASSERT_EQ(after.dropped, ref.dropped()) << "slice " << i << " step " << t;
      ASSERT_EQ(after.arrivals, ref.total_arrivals()) << "slice " << i << " step " << t;
      ASSERT_EQ(after.departures, ref.total_departures()) << "slice " << i << " step " << t;
      drop_steps += after.dropped > before[i].dropped;
      idle_steps += after.length == 0;
      fractional_steps += after.credit > 0.0;
    }
  }
  // The run covered every branch of the queue update.
  EXPECT_GT(drop_steps, 0u);
  EXPECT_GT(idle_steps, 0u);
  EXPECT_GT(fractional_steps, 0u);
}

}  // namespace
}  // namespace edgeslice::env
