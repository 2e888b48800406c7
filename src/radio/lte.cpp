#include "radio/lte.h"

#include <array>
#include <stdexcept>

namespace edgeslice::radio {

double cqi_efficiency(std::size_t cqi) {
  // TS 36.213 Table 7.2.3-1 (4-bit CQI, QPSK..64QAM).
  static constexpr std::array<double, 16> kEfficiency = {
      0.0,     // 0: out of range
      0.1523, 0.2344, 0.3770, 0.6016, 0.8770, 1.1758,  // QPSK
      1.4766, 1.9141, 2.4063,                           // 16QAM
      2.7305, 3.3223, 3.9023, 4.5234, 5.1152, 5.5547,   // 64QAM
  };
  if (cqi < kMinCqi || cqi > kMaxCqi) throw std::out_of_range("cqi_efficiency: CQI 1..15");
  return kEfficiency[cqi];
}

std::size_t prbs_for_bandwidth_mhz(double mhz) {
  if (mhz == 1.4) return 6;
  if (mhz == 3.0) return 15;
  if (mhz == 5.0) return 25;
  if (mhz == 10.0) return 50;
  if (mhz == 15.0) return 75;
  if (mhz == 20.0) return 100;
  throw std::invalid_argument("prbs_for_bandwidth_mhz: unsupported LTE bandwidth");
}

double tbs_bits(std::size_t prbs, std::size_t cqi) {
  return static_cast<double>(prbs) * kDataResourceElementsPerPrbPerTti * cqi_efficiency(cqi);
}

}  // namespace edgeslice::radio
