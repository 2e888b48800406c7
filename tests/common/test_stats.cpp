#include "common/stats.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"

namespace edgeslice {
namespace {

TEST(Stats, MeanBasic) {
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Stats, StddevKnownValue) {
  // Sample stddev of {2,4,4,4,5,5,7,9} is ~2.138.
  EXPECT_NEAR(stddev({2, 4, 4, 4, 5, 5, 7, 9}), 2.13809, 1e-4);
  EXPECT_DOUBLE_EQ(stddev({5.0}), 0.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 2.0);
}

TEST(Stats, PercentileValidation) {
  EXPECT_THROW(percentile({}, 50), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 101), std::invalid_argument);
}

TEST(Stats, PercentileSingleElement) {
  // Interpolation endpoints degenerate to the lone sample for every p.
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0), 7.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 50), 7.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 100), 7.0);
}

TEST(Stats, PercentileBoundsExactOnUnsortedInput) {
  // p = 0 / p = 100 must hit the exact min/max regardless of input order.
  const std::vector<double> xs{4.0, -2.0, 9.0, 0.5};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), -2.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 9.0);
  EXPECT_THROW(percentile(xs, -0.5), std::invalid_argument);
}

TEST(Stats, EcdfAtThreshold) {
  std::vector<double> xs{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(ecdf_at(xs, 2.0), 0.5);
  EXPECT_DOUBLE_EQ(ecdf_at(xs, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(ecdf_at(xs, 10.0), 1.0);
}

TEST(RunningStat, MatchesBatchStats) {
  Rng rng(2);
  const auto xs = rng.normals(1000, 5.0, 2.0);
  RunningStat rs;
  for (double x : xs) rs.add(x);
  EXPECT_EQ(rs.count(), xs.size());
  EXPECT_NEAR(rs.mean(), mean(xs), 1e-9);
  // Welford's m2 is the sum of squared deviations: m2 / (n - 1) is the
  // sample variance.
  EXPECT_NEAR(std::sqrt(rs.m2() / static_cast<double>(rs.count() - 1)), stddev(xs), 1e-9);
}

TEST(RunningStat, TracksMinMax) {
  RunningStat rs;
  rs.add(3.0);
  rs.add(-1.0);
  rs.add(7.0);
  EXPECT_DOUBLE_EQ(rs.min(), -1.0);
  EXPECT_DOUBLE_EQ(rs.max(), 7.0);
}

TEST(RunningStat, EmptyIsZero) {
  RunningStat rs;
  EXPECT_DOUBLE_EQ(rs.mean(), 0.0);
  EXPECT_DOUBLE_EQ(rs.m2(), 0.0);
  // Documented before-first-add behavior: min/max read as 0 until primed.
  EXPECT_EQ(rs.count(), 0u);
  EXPECT_DOUBLE_EQ(rs.min(), 0.0);
  EXPECT_DOUBLE_EQ(rs.max(), 0.0);
}

TEST(RunningStat, FirstAddPrimesMinMax) {
  // The first sample must overwrite the zero-initialized extremes — an
  // all-positive (or all-negative) stream must not report min/max 0.
  RunningStat rs;
  rs.add(5.0);
  EXPECT_DOUBLE_EQ(rs.min(), 5.0);
  EXPECT_DOUBLE_EQ(rs.max(), 5.0);
  RunningStat negative;
  negative.add(-3.0);
  negative.add(-8.0);
  EXPECT_DOUBLE_EQ(negative.max(), -3.0);
  EXPECT_DOUBLE_EQ(negative.min(), -8.0);
}

}  // namespace
}  // namespace edgeslice
