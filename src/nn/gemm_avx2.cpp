// AVX2/FMA register-tiled GEMM microkernels (the Avx2 backend).
//
// Built with function-level target("avx2,fma") attributes so the
// translation unit compiles into a generic binary; the dispatcher in
// gemm.cpp only ever calls these after cpu_supports_avx2_fma().
//
// Determinism contract (what the kernel-equivalence and batched-inference
// suites lean on): for the accumulating kernels (nn, at) every output
// element is a fold over ascending k of fma(a, b, acc) — a single
// accumulator chain per element, regardless of which register block or
// k-tile handled it, with tile boundaries parking the exact partial sum
// in c (a double-to-double store/reload rounds nothing). Vector lanes
// compute IEEE double fma, identical to the std::fma used in the scalar
// tails, so an element's value depends only on its own row of a and
// column of b and on k — never on m, n, the tiling, or its position in
// the matrix. That is what makes batched inference bit-identical to
// per-row inference under this backend.
//
// The bt kernel (dot products) uses two 4-lane partial accumulators over
// k plus an fma scalar tail, combined in one fixed order — again a pure
// function of the two rows and k alone. It computes four output columns
// per pass (eight independent fma chains) and combines their partials in
// registers; the per-element order is the same as one column at a time.
//
// The fused dense kernel (dense_avx2) runs the same chain from +0.0 over
// all of k, then adds the bias and applies the activation once, so it
// equals zero-fill + gemm_nn_avx2 + bias pass + activate_assign bit for
// bit (DESIGN.md Sec. 12).
//
// Versus the Scalar backend, each term suffers one rounding (fma) instead
// of two (mul then add); DESIGN.md documents the resulting bound.
#include "nn/gemm.h"

#include <algorithm>

#include "nn/activations.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <cmath>

#define EDGESLICE_AVX2 __attribute__((target("avx2,fma")))

namespace edgeslice::nn::detail {

namespace {

// B-panel rows kept hot per tile: 128 rows x 128 cols x 8 B = 128 KiB,
// inside L2 everywhere this runs. Results are tile-size independent.
constexpr std::size_t kAvx2TileK = 128;

/// What a register block does around its fma chain. Accumulate primes
/// the accumulators from c and stores them back raw (the GEMM kernels,
/// k-tiled). The Bias* epilogues are the fused dense layer: accumulators
/// start at +0.0 (what a zero-filled c would load), the chain runs over
/// the whole of k, and after it the bias is added and the rectifier, if
/// any, selected in registers before the one store.
enum class Epilogue { Accumulate, Bias, BiasRelu, BiasLeakyRelu };

/// Rectifier select on four lanes: z > 0 ? z : 0 (Relu) or
/// z > 0 ? z : slope * z (LeakyRelu). The ordered compare is false for
/// NaN and -0.0, exactly like the scalar `z > 0.0` in activate(), and
/// Relu selects 0.0 instead of multiplying, so -0.0 and NaN map to +0.0
/// just as the scalar path does.
template <Epilogue E>
EDGESLICE_AVX2 inline __m256d rectify(__m256d z) {
  if constexpr (E == Epilogue::BiasRelu || E == Epilogue::BiasLeakyRelu) {
    const __m256d positive = _mm256_cmp_pd(z, _mm256_setzero_pd(), _CMP_GT_OQ);
    const __m256d negative_branch =
        E == Epilogue::BiasRelu ? _mm256_setzero_pd()
                                : _mm256_mul_pd(_mm256_set1_pd(kLeakyReluSlope), z);
    return _mm256_blendv_pd(negative_branch, z, positive);
  } else {
    return z;
  }
}

/// One-lane rectifier, the same select as rectify() (and as activate()).
template <Epilogue E>
inline double rectify(double z) {
  if constexpr (E == Epilogue::BiasRelu) return z > 0.0 ? z : 0.0;
  if constexpr (E == Epilogue::BiasLeakyRelu) return z > 0.0 ? z : kLeakyReluSlope * z;
  return z;
}

// The `#pragma GCC unroll` on every per-row loop below is load-bearing:
// at -O2 GCC does not fully unroll them on its own, and an accumulator
// array that is indexed by a live loop counter stays on the stack, so
// every fma round-trips through a store and a store-forwarded reload
// (a 128x64x64 product ran 2.8x slower so on a 4-core AVX2 x86 host).
// Fully unrolled, each acc[r] is a register for the whole k loop. GCC
// and Clang both honour the pragma; it moves no bits either way.

/// One register block of ROWS output rows x 8 columns over kk in
/// [kk0, kk1). `a_i` has the stride layout of the caller: element
/// (row r, depth kk) lives at a_i[r * sa_row + kk * sa_depth] (sa_row /
/// sa_depth cover both the NN and the A^T access patterns with one
/// kernel). `bias` is read only by the Bias* epilogues.
template <int ROWS, Epilogue E>
EDGESLICE_AVX2 inline void block_rows_x8(const double* a_i, std::size_t sa_row,
                                         std::size_t sa_depth, const double* b,
                                         const double* bias, double* c_i, std::size_t n,
                                         std::size_t j, std::size_t kk0, std::size_t kk1) {
  __m256d acc_lo[ROWS];
  __m256d acc_hi[ROWS];
#pragma GCC unroll 8
  for (int r = 0; r < ROWS; ++r) {
    if constexpr (E == Epilogue::Accumulate) {
      acc_lo[r] = _mm256_loadu_pd(c_i + static_cast<std::size_t>(r) * n + j);
      acc_hi[r] = _mm256_loadu_pd(c_i + static_cast<std::size_t>(r) * n + j + 4);
    } else {
      acc_lo[r] = _mm256_setzero_pd();
      acc_hi[r] = _mm256_setzero_pd();
    }
  }
  for (std::size_t kk = kk0; kk < kk1; ++kk) {
    const __m256d b_lo = _mm256_loadu_pd(b + kk * n + j);
    const __m256d b_hi = _mm256_loadu_pd(b + kk * n + j + 4);
#pragma GCC unroll 8
    for (int r = 0; r < ROWS; ++r) {
      const __m256d a_r = _mm256_broadcast_sd(
          a_i + static_cast<std::size_t>(r) * sa_row + kk * sa_depth);
      acc_lo[r] = _mm256_fmadd_pd(a_r, b_lo, acc_lo[r]);
      acc_hi[r] = _mm256_fmadd_pd(a_r, b_hi, acc_hi[r]);
    }
  }
  if constexpr (E != Epilogue::Accumulate) {
    const __m256d bias_lo = _mm256_loadu_pd(bias + j);
    const __m256d bias_hi = _mm256_loadu_pd(bias + j + 4);
#pragma GCC unroll 8
    for (int r = 0; r < ROWS; ++r) {
      acc_lo[r] = rectify<E>(_mm256_add_pd(acc_lo[r], bias_lo));
      acc_hi[r] = rectify<E>(_mm256_add_pd(acc_hi[r], bias_hi));
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < ROWS; ++r) {
    _mm256_storeu_pd(c_i + static_cast<std::size_t>(r) * n + j, acc_lo[r]);
    _mm256_storeu_pd(c_i + static_cast<std::size_t>(r) * n + j + 4, acc_hi[r]);
  }
}

/// Same, for a 4-column block.
template <int ROWS, Epilogue E>
EDGESLICE_AVX2 inline void block_rows_x4(const double* a_i, std::size_t sa_row,
                                         std::size_t sa_depth, const double* b,
                                         const double* bias, double* c_i, std::size_t n,
                                         std::size_t j, std::size_t kk0, std::size_t kk1) {
  __m256d acc[ROWS];
#pragma GCC unroll 8
  for (int r = 0; r < ROWS; ++r) {
    if constexpr (E == Epilogue::Accumulate) {
      acc[r] = _mm256_loadu_pd(c_i + static_cast<std::size_t>(r) * n + j);
    } else {
      acc[r] = _mm256_setzero_pd();
    }
  }
  for (std::size_t kk = kk0; kk < kk1; ++kk) {
    const __m256d b_v = _mm256_loadu_pd(b + kk * n + j);
#pragma GCC unroll 8
    for (int r = 0; r < ROWS; ++r) {
      const __m256d a_r = _mm256_broadcast_sd(
          a_i + static_cast<std::size_t>(r) * sa_row + kk * sa_depth);
      acc[r] = _mm256_fmadd_pd(a_r, b_v, acc[r]);
    }
  }
  if constexpr (E != Epilogue::Accumulate) {
    const __m256d bias_v = _mm256_loadu_pd(bias + j);
#pragma GCC unroll 8
    for (int r = 0; r < ROWS; ++r) acc[r] = rectify<E>(_mm256_add_pd(acc[r], bias_v));
  }
#pragma GCC unroll 8
  for (int r = 0; r < ROWS; ++r) {
    _mm256_storeu_pd(c_i + static_cast<std::size_t>(r) * n + j, acc[r]);
  }
}

/// Scalar column tail: the same ascending-k fma chain, one lane wide.
template <int ROWS, Epilogue E>
EDGESLICE_AVX2 inline void block_rows_x1(const double* a_i, std::size_t sa_row,
                                         std::size_t sa_depth, const double* b,
                                         const double* bias, double* c_i, std::size_t n,
                                         std::size_t j, std::size_t kk0, std::size_t kk1) {
  for (int r = 0; r < ROWS; ++r) {
    double* c_rj = c_i + static_cast<std::size_t>(r) * n + j;
    double acc = E == Epilogue::Accumulate ? *c_rj : 0.0;
    for (std::size_t kk = kk0; kk < kk1; ++kk) {
      acc = std::fma(a_i[static_cast<std::size_t>(r) * sa_row + kk * sa_depth],
                     b[kk * n + j], acc);
    }
    if constexpr (E != Epilogue::Accumulate) acc = rectify<E>(acc + bias[j]);
    *c_rj = acc;
  }
}

/// All register blocks of c(m x n) over kk in [kk0, kk1): 4-row strips,
/// then single rows; within each, 8-column blocks, then a 4-column block,
/// then single columns.
template <Epilogue E>
EDGESLICE_AVX2 void sweep(const double* a, std::size_t sa_row, std::size_t sa_depth,
                          const double* b, const double* bias, double* c, std::size_t m,
                          std::size_t n, std::size_t kk0, std::size_t kk1) {
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const double* a_i = a + i * sa_row;
    double* c_i = c + i * n;
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8)
      block_rows_x8<4, E>(a_i, sa_row, sa_depth, b, bias, c_i, n, j, kk0, kk1);
    for (; j + 4 <= n; j += 4)
      block_rows_x4<4, E>(a_i, sa_row, sa_depth, b, bias, c_i, n, j, kk0, kk1);
    for (; j < n; ++j)
      block_rows_x1<4, E>(a_i, sa_row, sa_depth, b, bias, c_i, n, j, kk0, kk1);
  }
  for (; i < m; ++i) {
    const double* a_i = a + i * sa_row;
    double* c_i = c + i * n;
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8)
      block_rows_x8<1, E>(a_i, sa_row, sa_depth, b, bias, c_i, n, j, kk0, kk1);
    for (; j + 4 <= n; j += 4)
      block_rows_x4<1, E>(a_i, sa_row, sa_depth, b, bias, c_i, n, j, kk0, kk1);
    for (; j < n; ++j)
      block_rows_x1<1, E>(a_i, sa_row, sa_depth, b, bias, c_i, n, j, kk0, kk1);
  }
}

/// Shared accumulate kernel: c(m x n) += A * b(k x n), where A's element
/// (i, kk) is a[i * sa_row + kk * sa_depth]. (sa_row = k, sa_depth = 1)
/// is the NN product; (sa_row = 1, sa_depth = m) is the A^T product.
EDGESLICE_AVX2 void gemm_acc(const double* a, std::size_t sa_row, std::size_t sa_depth,
                             const double* b, double* c, std::size_t m, std::size_t k,
                             std::size_t n) {
  for (std::size_t kk0 = 0; kk0 < k; kk0 += kAvx2TileK) {
    sweep<Epilogue::Accumulate>(a, sa_row, sa_depth, b, nullptr, c, m, n, kk0,
                                std::min(k, kk0 + kAvx2TileK));
  }
}

// The bt kernel's per-element order (what the contract test's
// reference_bt spells out): two 4-lane fma partials, l0 over k steps
// [8q, 8q+4) and l1 over [8q+4, 8q+8), one more 4-wide step into l0 when
// k % 8 >= 4, an fma scalar tail from 0.0 over the last k % 4 terms, and
// the combine ((l0[0]+l0[1]) + (l0[2]+l0[3])) + ((l1[0]+l1[1]) +
// (l1[2]+l1[3])) + tail. The value depends only on the two rows and k —
// never on m, n or position.

/// One output element: <arow, brow> in the order above.
EDGESLICE_AVX2 inline double bt_x1(const double* arow, const double* brow, std::size_t k) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t kk = 0;
  for (; kk + 8 <= k; kk += 8) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(arow + kk), _mm256_loadu_pd(brow + kk), acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(arow + kk + 4), _mm256_loadu_pd(brow + kk + 4),
                           acc1);
  }
  for (; kk + 4 <= k; kk += 4) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(arow + kk), _mm256_loadu_pd(brow + kk), acc0);
  }
  double tail = 0.0;
  for (; kk < k; ++kk) tail = std::fma(arow[kk], brow[kk], tail);
  alignas(32) double l0[4];
  alignas(32) double l1[4];
  _mm256_store_pd(l0, acc0);
  _mm256_store_pd(l1, acc1);
  return ((l0[0] + l0[1]) + (l0[2] + l0[3])) + ((l1[0] + l1[1]) + (l1[2] + l1[3])) + tail;
}

/// Lane sums of four partials, one per output column:
/// lane c = (v[c][0] + v[c][1]) + (v[c][2] + v[c][3]). hadd pairs the
/// lanes within each 128-bit half; permute2f128 lines the low-pair sums
/// up against the high-pair sums.
EDGESLICE_AVX2 inline __m256d lane_sums(const __m256d v[4]) {
  const __m256d h01 = _mm256_hadd_pd(v[0], v[1]);  // v0 01, v1 01, v0 23, v1 23
  const __m256d h23 = _mm256_hadd_pd(v[2], v[3]);  // v2 01, v3 01, v2 23, v3 23
  return _mm256_add_pd(_mm256_permute2f128_pd(h01, h23, 0x20),
                       _mm256_permute2f128_pd(h01, h23, 0x31));
}

/// Four adjacent output elements c[0..4) = <arow, brow_c>, where brow_c =
/// b4 + c * k: eight independent fma chains (two partials per column)
/// share each load of arow, and the combine runs in registers.
EDGESLICE_AVX2 inline void bt_x4(const double* arow, const double* b4, std::size_t k,
                                 double* c) {
  __m256d acc0[4];
  __m256d acc1[4];
#pragma GCC unroll 4
  for (int col = 0; col < 4; ++col) {
    acc0[col] = _mm256_setzero_pd();
    acc1[col] = _mm256_setzero_pd();
  }
  std::size_t kk = 0;
  for (; kk + 8 <= k; kk += 8) {
    const __m256d a0 = _mm256_loadu_pd(arow + kk);
    const __m256d a1 = _mm256_loadu_pd(arow + kk + 4);
#pragma GCC unroll 4
    for (int col = 0; col < 4; ++col) {
      const double* brow = b4 + static_cast<std::size_t>(col) * k;
      acc0[col] = _mm256_fmadd_pd(a0, _mm256_loadu_pd(brow + kk), acc0[col]);
      acc1[col] = _mm256_fmadd_pd(a1, _mm256_loadu_pd(brow + kk + 4), acc1[col]);
    }
  }
  for (; kk + 4 <= k; kk += 4) {
    const __m256d a0 = _mm256_loadu_pd(arow + kk);
#pragma GCC unroll 4
    for (int col = 0; col < 4; ++col) {
      acc0[col] = _mm256_fmadd_pd(
          a0, _mm256_loadu_pd(b4 + static_cast<std::size_t>(col) * k + kk), acc0[col]);
    }
  }
  alignas(32) double tail[4] = {0.0, 0.0, 0.0, 0.0};
  for (; kk < k; ++kk) {
#pragma GCC unroll 4
    for (int col = 0; col < 4; ++col) {
      tail[col] = std::fma(arow[kk], b4[static_cast<std::size_t>(col) * k + kk], tail[col]);
    }
  }
  const __m256d sum = _mm256_add_pd(_mm256_add_pd(lane_sums(acc0), lane_sums(acc1)),
                                    _mm256_load_pd(tail));
  _mm256_storeu_pd(c, sum);
}

}  // namespace

EDGESLICE_AVX2 void gemm_nn_avx2(const double* a, const double* b, double* c,
                                 std::size_t m, std::size_t k, std::size_t n) {
  gemm_acc(a, /*sa_row=*/k, /*sa_depth=*/1, b, c, m, k, n);
}

EDGESLICE_AVX2 void gemm_at_avx2(const double* a, const double* b, double* c,
                                 std::size_t m, std::size_t k, std::size_t n) {
  gemm_acc(a, /*sa_row=*/1, /*sa_depth=*/m, b, c, m, k, n);
}

EDGESLICE_AVX2 void gemm_bt_avx2(const double* a, const double* b, double* c,
                                 std::size_t m, std::size_t k, std::size_t n) {
  // c(i, j) = <row_i(a), row_j(b)>, four columns per pass (bt_x4), then
  // single columns (bt_x1): the same per-element order either way.
  for (std::size_t i = 0; i < m; ++i) {
    const double* arow = a + i * k;
    double* crow = c + i * n;
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) bt_x4(arow, b + j * k, k, crow + j);
    for (; j < n; ++j) crow[j] = bt_x1(arow, b + j * k, k);
  }
}

EDGESLICE_AVX2 void dense_avx2(const double* x, const double* w, const double* bias,
                               double* out, std::size_t m, std::size_t k, std::size_t n,
                               Activation activation) {
  // One untiled sweep: each block's chain covers all of k in registers,
  // so the output is written once, already biased and rectified.
  switch (activation) {
    case Activation::Relu:
      sweep<Epilogue::BiasRelu>(x, k, 1, w, bias, out, m, n, 0, k);
      return;
    case Activation::LeakyRelu:
      sweep<Epilogue::BiasLeakyRelu>(x, k, 1, w, bias, out, m, n, 0, k);
      return;
    default:
      sweep<Epilogue::Bias>(x, k, 1, w, bias, out, m, n, 0, k);
      // Identity is done; the transcendental heads keep the scalar
      // activate() (a vector exp/tanh would move bits).
      if (activation != Activation::Identity) {
        for (std::size_t e = 0; e < m * n; ++e) out[e] = activate(out[e], activation);
      }
      return;
  }
}

}  // namespace edgeslice::nn::detail

#else  // non-x86: unreachable (cpu_supports_avx2_fma() is false), but keep
       // the symbols defined by forwarding to the scalar reference.

namespace edgeslice::nn::detail {

void gemm_nn_avx2(const double* a, const double* b, double* c, std::size_t m,
                  std::size_t k, std::size_t n) {
  gemm_nn_scalar(a, b, c, m, k, n);
}
void gemm_at_avx2(const double* a, const double* b, double* c, std::size_t m,
                  std::size_t k, std::size_t n) {
  gemm_at_scalar(a, b, c, m, k, n);
}
void gemm_bt_avx2(const double* a, const double* b, double* c, std::size_t m,
                  std::size_t k, std::size_t n) {
  gemm_bt_scalar(a, b, c, m, k, n);
}
void dense_avx2(const double* x, const double* w, const double* bias, double* out,
                std::size_t m, std::size_t k, std::size_t n, Activation activation) {
  std::fill(out, out + m * n, 0.0);
  gemm_nn_scalar(x, w, out, m, k, n);
  for (std::size_t e = 0; e < m * n; ++e) {
    out[e] = activate(out[e] + bias[e % n], activation);
  }
}

}  // namespace edgeslice::nn::detail

#endif
