// Plain reference forms the nn tests check the library's kernels against:
// the materialized transpose, the value a^T * b, the elementwise scalar
// activation of a whole matrix, and the scalar activation derivative; plus
// the activation names the parametrized cases print.
#pragma once

#include <cmath>
#include <stdexcept>

#include "nn/activations.h"
#include "nn/matrix.h"

namespace edgeslice::nn {

inline Matrix transpose(const Matrix& m) {
  Matrix t(m.cols(), m.rows());
  for (std::size_t r = 0; r < m.rows(); ++r)
    for (std::size_t c = 0; c < m.cols(); ++c) t(c, r) = m(r, c);
  return t;
}

/// a^T * b as a fresh matrix: add_transposed_matmul into zeros.
inline Matrix transposed_matmul(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows()) throw std::invalid_argument("transposed_matmul: shape mismatch");
  Matrix out(a.cols(), b.cols());
  out.add_transposed_matmul(a, b);
  return out;
}

/// The scalar activate() applied to every element of a copy of z.
inline Matrix activated(const Matrix& z, Activation a) {
  Matrix y = z;
  for (auto& x : y.data()) x = activate(x, a);
  return y;
}

/// d activate(z, a) / dz, computed from z.
inline double activate_grad(double z, Activation a) {
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

inline const char* activation_name(Activation a) {
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
