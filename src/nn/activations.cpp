#include "nn/activations.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace edgeslice::nn {

namespace {

/// key > 0.0 ? positive : otherwise, as a bit select instead of a
/// branch: on real pre-activations the sign is a coin flip, and a
/// mispredicted branch per element cost more than the layer's GEMM. The
/// compare is the same ordered `z > 0.0` activate() uses, so -0.0 and
/// NaN take `otherwise` exactly as there (std::max would not:
/// std::max(-0.0, 0.0) is -0.0).
inline double select_positive(double key, double positive, double otherwise) {
  const std::uint64_t keep = std::uint64_t{0} - static_cast<std::uint64_t>(key > 0.0);
  return std::bit_cast<double>((std::bit_cast<std::uint64_t>(positive) & keep) |
                               (std::bit_cast<std::uint64_t>(otherwise) & ~keep));
}

}  // namespace

double activate(double z, Activation a) {
  switch (a) {
    case Activation::Identity: return z;
    case Activation::Relu: return z > 0.0 ? z : 0.0;
    case Activation::LeakyRelu: return z > 0.0 ? z : kLeakyReluSlope * z;
    case Activation::Tanh: return std::tanh(z);
    case Activation::Sigmoid: return 1.0 / (1.0 + std::exp(-z));
    case Activation::Softplus:
      // Numerically stable log(1 + e^z).
      return z > 30.0 ? z : std::log1p(std::exp(z));
  }
  return z;
}

void activate_assign(Matrix& z, Activation a) {
  // One switch per matrix instead of one indirect call per element; each
  // branch applies exactly the scalar activate(x, a) above.
  auto& data = z.data();
  switch (a) {
    case Activation::Identity:
      return;
    case Activation::Relu:
      for (auto& x : data) x = select_positive(x, x, 0.0);
      return;
    case Activation::LeakyRelu:
      for (auto& x : data) x = select_positive(x, x, kLeakyReluSlope * x);
      return;
    case Activation::Tanh:
      for (auto& x : data) x = std::tanh(x);
      return;
    case Activation::Sigmoid:
      for (auto& x : data) x = 1.0 / (1.0 + std::exp(-x));
      return;
    case Activation::Softplus:
      for (auto& x : data) x = x > 30.0 ? x : std::log1p(std::exp(x));
      return;
  }
}

void activate_grad_product(const Matrix& cache, const Matrix& grad_out, Activation a,
                           Matrix& out) {
  if (cache.rows() != grad_out.rows() || cache.cols() != grad_out.cols())
    throw std::invalid_argument("activate_grad_product: shape mismatch");
  if (out.rows() != cache.rows() || out.cols() != cache.cols())
    out = Matrix(cache.rows(), cache.cols());
  const double* y = cache.data().data();
  const double* g = grad_out.data().data();
  double* dz = out.data().data();
  const std::size_t n = cache.size();
  // Each branch is activate_grad(z, a) * g with the derivative rewritten
  // on y: 1.0 * g is g, so the rectifiers select g or slope * g (Relu's
  // slope is 0.0, and 0.0 * g keeps g's sign and NaN).
  switch (a) {
    case Activation::Identity:
      for (std::size_t e = 0; e < n; ++e) dz[e] = 1.0 * g[e];
      return;
    case Activation::Relu:
      for (std::size_t e = 0; e < n; ++e) dz[e] = select_positive(y[e], g[e], 0.0 * g[e]);
      return;
    case Activation::LeakyRelu:
      for (std::size_t e = 0; e < n; ++e)
        dz[e] = select_positive(y[e], g[e], kLeakyReluSlope * g[e]);
      return;
    case Activation::Tanh:
      for (std::size_t e = 0; e < n; ++e) dz[e] = (1.0 - y[e] * y[e]) * g[e];
      return;
    case Activation::Sigmoid:
      for (std::size_t e = 0; e < n; ++e) dz[e] = (y[e] * (1.0 - y[e])) * g[e];
      return;
    case Activation::Softplus:  // `cache` holds z here
      for (std::size_t e = 0; e < n; ++e) dz[e] = (1.0 / (1.0 + std::exp(-y[e]))) * g[e];
      return;
  }
}

}  // namespace edgeslice::nn
