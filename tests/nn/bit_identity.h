// Helpers for the nn bit-identity tests: a NaN-tolerant bit comparison
// and a scoped GEMM backend pin, so a test can run once per backend.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "nn/gemm.h"

namespace edgeslice::nn::test_support {

/// Same bits, except that any two NaNs match (payloads are not part of
/// the contract); +0.0 and -0.0 do not.
inline bool same_bits(double x, double y) {
  return (std::isnan(x) && std::isnan(y)) ||
         std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
}

/// Every GEMM backend this CPU runs.
inline std::vector<GemmBackend> backends() {
  std::vector<GemmBackend> out{GemmBackend::Scalar};
  if (cpu_supports_avx2_fma()) out.push_back(GemmBackend::Avx2);
  return out;
}

/// Pins a backend for one scope and restores the previous one after, so
/// a pin cannot leak into later tests of the same process.
class PinnedBackend {
 public:
  explicit PinnedBackend(GemmBackend backend) : saved_(active_gemm_backend()) {
    set_gemm_backend(backend);
  }
  ~PinnedBackend() { set_gemm_backend(saved_); }
  PinnedBackend(const PinnedBackend&) = delete;
  PinnedBackend& operator=(const PinnedBackend&) = delete;

 private:
  GemmBackend saved_;
};

}  // namespace edgeslice::nn::test_support
