#include "nn/adam.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nn/gemm.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace edgeslice::nn {

namespace {

/// One step's constants, hoisted out of the per-parameter loop.
struct StepConstants {
  double scale, beta1, one_minus_beta1, beta2, one_minus_beta2, b1t, b2t, lr, epsilon;
};

/// The update of one parameter, in the order both kernels keep.
inline void scalar_update(const StepConstants& k, double& p, double& g, double& m,
                          double& v) {
  const double grad = g * k.scale;
  m = k.beta1 * m + k.one_minus_beta1 * grad;
  v = k.beta2 * v + k.one_minus_beta2 * grad * grad;
  const double m_hat = m / k.b1t;
  const double v_hat = v / k.b2t;
  p -= k.lr * m_hat / (std::sqrt(v_hat) + k.epsilon);
  g = 0.0;
}

#if defined(__x86_64__) || defined(__i386__)

/// scalar_update() on four lanes at a time, for the leading multiple of
/// four of a slot; returns how many parameters it updated. Every lane
/// runs the scalar operations in the scalar order, each one IEEE-rounded
/// (mul, add, div, sqrt and sub all are), so the bits equal the scalar
/// loop's. The target is "avx2" WITHOUT "fma" on purpose: GCC implements
/// these intrinsics as plain vector arithmetic, and under an fma target
/// it would contract a mul feeding an add into one fused operation (one
/// rounding instead of two), which changes the result.
__attribute__((target("avx2"))) std::size_t update_avx2(const StepConstants& k,
                                                         double* p, double* g,
                                                         double* m, double* v,
                                                         std::size_t n) {
  const __m256d scale = _mm256_set1_pd(k.scale);
  const __m256d beta1 = _mm256_set1_pd(k.beta1);
  const __m256d one_minus_beta1 = _mm256_set1_pd(k.one_minus_beta1);
  const __m256d beta2 = _mm256_set1_pd(k.beta2);
  const __m256d one_minus_beta2 = _mm256_set1_pd(k.one_minus_beta2);
  const __m256d b1t = _mm256_set1_pd(k.b1t);
  const __m256d b2t = _mm256_set1_pd(k.b2t);
  const __m256d lr = _mm256_set1_pd(k.lr);
  const __m256d epsilon = _mm256_set1_pd(k.epsilon);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d grad = _mm256_mul_pd(_mm256_loadu_pd(g + i), scale);
    const __m256d m_i = _mm256_add_pd(_mm256_mul_pd(beta1, _mm256_loadu_pd(m + i)),
                                      _mm256_mul_pd(one_minus_beta1, grad));
    const __m256d v_i =
        _mm256_add_pd(_mm256_mul_pd(beta2, _mm256_loadu_pd(v + i)),
                      _mm256_mul_pd(_mm256_mul_pd(one_minus_beta2, grad), grad));
    _mm256_storeu_pd(m + i, m_i);
    _mm256_storeu_pd(v + i, v_i);
    const __m256d m_hat = _mm256_div_pd(m_i, b1t);
    const __m256d v_hat = _mm256_div_pd(v_i, b2t);
    const __m256d delta = _mm256_div_pd(_mm256_mul_pd(lr, m_hat),
                                        _mm256_add_pd(_mm256_sqrt_pd(v_hat), epsilon));
    _mm256_storeu_pd(p + i, _mm256_sub_pd(_mm256_loadu_pd(p + i), delta));
    _mm256_storeu_pd(g + i, _mm256_setzero_pd());
  }
  return i;
}

#endif

}  // namespace

void Adam::attach(Matrix* param, Matrix* grad) {
  if (param == nullptr || grad == nullptr) throw std::invalid_argument("Adam::attach: null");
  if (param->rows() != grad->rows() || param->cols() != grad->cols())
    throw std::invalid_argument("Adam::attach: shape mismatch");
  slots_.push_back(Slot{param, grad, Matrix(param->rows(), param->cols()),
                        Matrix(param->rows(), param->cols())});
}

void Adam::step() { step(1.0); }

void Adam::step(double scale) {
  ++t_;
  const StepConstants k{scale,
                        config_.beta1,
                        1.0 - config_.beta1,
                        config_.beta2,
                        1.0 - config_.beta2,
                        1.0 - std::pow(config_.beta1, static_cast<double>(t_)),
                        1.0 - std::pow(config_.beta2, static_cast<double>(t_)),
                        config_.learning_rate,
                        config_.epsilon};
  // The GEMM pin picks the kernel; both give the same bits.
  [[maybe_unused]] const bool avx2 = active_gemm_backend() == GemmBackend::Avx2;
  for (auto& slot : slots_) {
    double* p = slot.param->data().data();
    double* g = slot.grad->data().data();
    double* m = slot.m.data().data();
    double* v = slot.v.data().data();
    const std::size_t n = slot.param->size();
    std::size_t i = 0;
#if defined(__x86_64__) || defined(__i386__)
    if (avx2) i = update_avx2(k, p, g, m, v, n);
#endif
    for (; i < n; ++i) scalar_update(k, p[i], g[i], m[i], v[i]);
  }
}

AdamState Adam::export_state() const {
  AdamState state;
  state.step_count = t_;
  std::size_t total = 0;
  for (const auto& slot : slots_) total += slot.m.size();
  state.m.reserve(total);
  state.v.reserve(total);
  for (const auto& slot : slots_) {
    const auto& m = slot.m.data();
    const auto& v = slot.v.data();
    state.m.insert(state.m.end(), m.begin(), m.end());
    state.v.insert(state.v.end(), v.begin(), v.end());
  }
  return state;
}

void Adam::restore_state(const AdamState& state) {
  std::size_t total = 0;
  for (const auto& slot : slots_) total += slot.m.size();
  if (state.m.size() != total || state.v.size() != total) {
    throw std::invalid_argument("Adam::restore_state: moment size mismatch");
  }
  t_ = state.step_count;
  std::size_t offset = 0;
  for (auto& slot : slots_) {
    auto& m = slot.m.data();
    auto& v = slot.v.data();
    std::copy(state.m.begin() + static_cast<std::ptrdiff_t>(offset),
              state.m.begin() + static_cast<std::ptrdiff_t>(offset + m.size()), m.begin());
    std::copy(state.v.begin() + static_cast<std::ptrdiff_t>(offset),
              state.v.begin() + static_cast<std::ptrdiff_t>(offset + v.size()), v.begin());
    offset += m.size();
  }
}

}  // namespace edgeslice::nn
