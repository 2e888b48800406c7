#include "nn/activations.h"

#include <bit>
#include <cmath>
#include <cstdint>

namespace edgeslice::nn {

namespace {

/// z > 0.0 ? z : negative, as a bit select instead of a branch: on real
/// pre-activations the sign is a coin flip, and a mispredicted branch
/// per element cost more than the layer's GEMM. The compare is the same
/// ordered `z > 0.0` activate() uses, so -0.0 and NaN take `negative`
/// exactly as there (std::max would not: std::max(-0.0, 0.0) is -0.0).
inline double select_positive(double z, double negative) {
  const std::uint64_t keep = std::uint64_t{0} - static_cast<std::uint64_t>(z > 0.0);
  return std::bit_cast<double>((std::bit_cast<std::uint64_t>(z) & keep) |
                               (std::bit_cast<std::uint64_t>(negative) & ~keep));
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

double activate_grad(double z, Activation a) {
  switch (a) {
    case Activation::Identity: return 1.0;
    case Activation::Relu: return z > 0.0 ? 1.0 : 0.0;
    case Activation::LeakyRelu: return z > 0.0 ? 1.0 : kLeakyReluSlope;
    case Activation::Tanh: {
      const double t = std::tanh(z);
      return 1.0 - t * t;
    }
    case Activation::Sigmoid: {
      const double s = 1.0 / (1.0 + std::exp(-z));
      return s * (1.0 - s);
    }
    case Activation::Softplus:
      return 1.0 / (1.0 + std::exp(-z));
  }
  return 1.0;
}

Matrix activate(const Matrix& z, Activation a) {
  return z.map([a](double x) { return activate(x, a); });
}

void activate_assign(Matrix& z, Activation a) {
  // One switch per matrix instead of one indirect call per element; each
  // branch applies exactly the scalar activate(x, a) above.
  auto& data = z.data();
  switch (a) {
    case Activation::Identity:
      return;
    case Activation::Relu:
      for (auto& x : data) x = select_positive(x, 0.0);
      return;
    case Activation::LeakyRelu:
      for (auto& x : data) x = select_positive(x, kLeakyReluSlope * x);
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

Matrix activate_grad(const Matrix& z, Activation a) {
  return z.map([a](double x) { return activate_grad(x, a); });
}

const char* activation_name(Activation a) {
  switch (a) {
    case Activation::Identity: return "identity";
    case Activation::Relu: return "relu";
    case Activation::LeakyRelu: return "leaky_relu";
    case Activation::Tanh: return "tanh";
    case Activation::Sigmoid: return "sigmoid";
    case Activation::Softplus: return "softplus";
  }
  return "?";
}

}  // namespace edgeslice::nn
