#include "radio/lte.h"

#include <gtest/gtest.h>

namespace edgeslice::radio {
namespace {

TEST(Lte, CqiEfficiencyMonotone) {
  for (std::size_t cqi = kMinCqi + 1; cqi <= kMaxCqi; ++cqi) {
    EXPECT_GT(cqi_efficiency(cqi), cqi_efficiency(cqi - 1)) << "cqi " << cqi;
  }
}

TEST(Lte, CqiBoundsEnforced) {
  EXPECT_THROW(cqi_efficiency(0), std::out_of_range);
  EXPECT_THROW(cqi_efficiency(16), std::out_of_range);
  EXPECT_NO_THROW(cqi_efficiency(1));
  EXPECT_NO_THROW(cqi_efficiency(15));
}

TEST(Lte, KnownEfficiencies) {
  // Spot values from TS 36.213 Table 7.2.3-1.
  EXPECT_NEAR(cqi_efficiency(1), 0.1523, 1e-6);
  EXPECT_NEAR(cqi_efficiency(9), 2.4063, 1e-6);
  EXPECT_NEAR(cqi_efficiency(15), 5.5547, 1e-6);
}

TEST(Lte, PrototypeBandwidthIs25Prbs) {
  EXPECT_EQ(prbs_for_bandwidth_mhz(5.0), 25u);  // Table II: 5 MHz carriers
}

TEST(Lte, AllStandardBandwidths) {
  EXPECT_EQ(prbs_for_bandwidth_mhz(1.4), 6u);
  EXPECT_EQ(prbs_for_bandwidth_mhz(3.0), 15u);
  EXPECT_EQ(prbs_for_bandwidth_mhz(10.0), 50u);
  EXPECT_EQ(prbs_for_bandwidth_mhz(15.0), 75u);
  EXPECT_EQ(prbs_for_bandwidth_mhz(20.0), 100u);
  EXPECT_THROW(prbs_for_bandwidth_mhz(7.3), std::invalid_argument);
}

TEST(Lte, TbsScalesLinearlyWithPrbs) {
  EXPECT_NEAR(tbs_bits(10, 9), 10.0 * tbs_bits(1, 9), 1e-9);
}

TEST(Lte, PeakThroughputPlausible) {
  // 25 PRBs at CQI 15 (64QAM peak): in the ballpark of LTE 5 MHz ~ 18 Mbps.
  const double mbps = tbs_bits(25, 15) * 1000.0 / 1e6;  // 1000 TTIs per second
  EXPECT_GT(mbps, 12.0);
  EXPECT_LT(mbps, 25.0);
}

TEST(Lte, ZeroPrbsZeroBits) {
  EXPECT_DOUBLE_EQ(tbs_bits(0, 9), 0.0);
}

}  // namespace
}  // namespace edgeslice::radio
