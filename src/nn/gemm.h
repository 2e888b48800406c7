// Runtime-dispatched GEMM backends for the nn substrate.
//
// Every Matrix product (matmul, matmul_into, matmul_transposed,
// add_transposed_matmul) routes through one of two backends:
//
//   Scalar — the always-available reference implementation: k-tiled
//     row-major loops, each output element accumulated as
//     round(round(a*b) + acc) in ascending-k order. Bit-identical to the
//     pre-dispatch implementation; the determinism contract every
//     bit-identity suite in the repo is written against.
//   Avx2 — AVX2/FMA register-tiled microkernels. Each output element is
//     a fold over ascending k of fma(a, b, acc) — one rounding per term
//     instead of two — so results differ from Scalar by bounded rounding
//     (see DESIGN.md for the bound) but are themselves fully
//     deterministic: independent of tiling, of the batch (row r of an
//     m-row product equals the 1-row product of row r, bit for bit), and
//     of every other matrix dimension.
//
// Selection: the EDGESLICE_GEMM environment variable (values in
// kGemmModeNames: "scalar", "avx2", "auto"), read once on first use;
// set_gemm_backend() overrides it programmatically (tests, benches).
// "auto" (also the unset default) picks Avx2 when the CPU supports
// AVX2+FMA and Scalar otherwise. Pinning "avx2" on a CPU without the
// instructions throws instead of silently falling back — a pinned
// backend is a reproducibility statement, not a hint.
#pragma once

#include <cstddef>

namespace edgeslice::nn {

enum class Activation;  // nn/activations.h

/// A resolved kernel backend (what actually runs).
enum class GemmBackend { Scalar = 0, Avx2 = 1 };

/// Accepted EDGESLICE_GEMM values ("auto" resolves per CPU support).
/// docs_check.cmake pins the EXPERIMENTS.md documentation to this list.
inline constexpr const char* kGemmModeNames[] = {"scalar", "avx2", "auto"};

/// True when the CPU (and build target) can run the Avx2 backend.
bool cpu_supports_avx2_fma();

/// The backend the next product will use. First call resolves
/// EDGESLICE_GEMM (throws std::invalid_argument on an unknown value or an
/// unsupported explicit "avx2" pin); later calls return the cached choice.
GemmBackend active_gemm_backend();

/// Pin the backend programmatically (overrides the environment). Throws
/// std::invalid_argument when Avx2 is requested but unsupported.
void set_gemm_backend(GemmBackend backend);

/// Resolve a mode string from kGemmModeNames and pin it ("auto" re-runs
/// CPU detection). Throws std::invalid_argument on anything else.
void set_gemm_backend(const char* mode);

/// Drop any pin: the next active_gemm_backend() re-reads EDGESLICE_GEMM.
void reset_gemm_backend();

const char* gemm_backend_name(GemmBackend backend);

namespace detail {

// Raw kernels over contiguous row-major buffers. All of them ACCUMULATE
// into c (callers zero-fill first when they want a plain product), except
// gemm_bt_* which overwrites — its per-element dot product needs no
// accumulator priming. Shapes: c is m x n throughout.
//   nn: c += a(m x k) * b(k x n)
//   at: c += a(k x m)^T * b(k x n)      [a stored k x m]
//   bt: c  = a(m x k) * b(n x k)^T      [b stored n x k]

void gemm_nn_scalar(const double* a, const double* b, double* c, std::size_t m,
                    std::size_t k, std::size_t n);
void gemm_at_scalar(const double* a, const double* b, double* c, std::size_t m,
                    std::size_t k, std::size_t n);
void gemm_bt_scalar(const double* a, const double* b, double* c, std::size_t m,
                    std::size_t k, std::size_t n);

// Compiled with function-level target("avx2,fma") attributes; calling any
// of these on a CPU without AVX2+FMA is undefined — the dispatcher never
// does. On non-x86 builds they forward to the scalar kernels (and
// cpu_supports_avx2_fma() is false, so they are unreachable anyway).
void gemm_nn_avx2(const double* a, const double* b, double* c, std::size_t m,
                  std::size_t k, std::size_t n);
void gemm_at_avx2(const double* a, const double* b, double* c, std::size_t m,
                  std::size_t k, std::size_t n);
void gemm_bt_avx2(const double* a, const double* b, double* c, std::size_t m,
                  std::size_t k, std::size_t n);

// The fused dense layer: out(m x n) = act(x(m x k) * w(k x n) + bias(1 x n)),
// overwriting out. Each element is the nn kernel's ascending-k fma chain
// from +0.0, then + bias, then activate() — bit-identical to zero-fill +
// gemm_nn_avx2 + a bias pass + activate_assign, in one pass over out.
// Relu and LeakyRelu are selected in registers; Sigmoid, Tanh and
// Softplus run the scalar activate() after the store.
void dense_avx2(const double* x, const double* w, const double* bias, double* out,
                std::size_t m, std::size_t k, std::size_t n, Activation activation);

}  // namespace detail

}  // namespace edgeslice::nn
