// LTE physical-layer constants and rate tables.
//
// Stands in for the OpenAirInterface eNodeB of the prototype (Table II:
// 5 MHz carriers = 25 PRBs on Band 7 / Band 38). The numbers follow
// 3GPP TS 36.213: CQI indices 1..15 map to modulation-and-coding spectral
// efficiencies; a PRB is 12 subcarriers x 0.5 ms slot.
#pragma once

#include <cstddef>

namespace edgeslice::radio {

inline constexpr std::size_t kMinCqi = 1;
inline constexpr std::size_t kMaxCqi = 15;

/// Spectral efficiency (information bits per resource element) for a CQI
/// index, per TS 36.213 Table 7.2.3-1. Index 0 is invalid (out of range).
double cqi_efficiency(std::size_t cqi);

/// Number of physical resource blocks for a channel bandwidth in MHz
/// (1.4 -> 6, 3 -> 15, 5 -> 25, 10 -> 50, 15 -> 75, 20 -> 100).
std::size_t prbs_for_bandwidth_mhz(double mhz);

/// Resource elements available for the shared data channel per PRB per
/// 1 ms TTI: 12 subcarriers x 14 OFDM symbols, minus ~25% control/pilot
/// overhead (PDCCH, CRS, PBCH amortized).
inline constexpr double kDataResourceElementsPerPrbPerTti = 12.0 * 14.0 * 0.75;

/// Transport block size in bits for `prbs` PRBs at CQI `cqi` in one TTI.
double tbs_bits(std::size_t prbs, std::size_t cqi);

}  // namespace edgeslice::radio
