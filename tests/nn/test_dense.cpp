#include "nn/dense.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "bit_identity.h"
#include "common/rng.h"
#include "matrix_reference.h"

namespace edgeslice::nn {
namespace {

constexpr Activation kAllActivations[] = {Activation::Identity, Activation::Relu,
                                          Activation::LeakyRelu, Activation::Tanh,
                                          Activation::Sigmoid,  Activation::Softplus};

using test_support::backends;
using test_support::PinnedBackend;
using test_support::same_bits;

void expect_same_bits(const Matrix& actual, const Matrix& expected, const char* what) {
  ASSERT_EQ(actual.rows(), expected.rows()) << what;
  ASSERT_EQ(actual.cols(), expected.cols()) << what;
  for (std::size_t e = 0; e < actual.size(); ++e) {
    EXPECT_TRUE(same_bits(actual.data()[e], expected.data()[e]))
        << what << " element " << e << ": " << actual.data()[e] << " vs "
        << expected.data()[e];
  }
}

Matrix infer(const Dense& layer, const Matrix& x) {
  Matrix out;
  layer.infer_into(x, out);
  return out;
}

/// Upstream gradient with +0.0, -0.0 and a NaN among normals.
Matrix upstream_gradient(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix g(rows, cols);
  for (auto& v : g.data()) v = rng.normal();
  g.data()[0] = 0.0;
  g.data()[1] = -0.0;
  g.data()[2] = std::numeric_limits<double>::quiet_NaN();
  return g;
}

TEST(Dense, ForwardShape) {
  Rng rng(1);
  Dense layer(3, 5, Activation::Identity, rng);
  const auto y = layer.forward(Matrix(4, 3, 1.0));
  EXPECT_EQ(y.rows(), 4u);
  EXPECT_EQ(y.cols(), 5u);
}

TEST(Dense, ForwardComputesAffine) {
  Rng rng(1);
  Dense layer(2, 1, Activation::Identity, rng);
  layer.weights() = Matrix{{2.0}, {3.0}};
  layer.bias() = Matrix{{1.0}};
  const auto y = layer.forward(Matrix{{1.0, 1.0}});
  EXPECT_DOUBLE_EQ(y(0, 0), 6.0);
}

TEST(Dense, InferMatchesForward) {
  Rng rng(3);
  Dense layer(4, 3, Activation::Tanh, rng);
  Matrix x(2, 4);
  Rng data(9);
  for (auto& v : x.data()) v = data.normal();
  const auto a = layer.forward(x);
  const auto b = infer(layer, x);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.data()[i], b.data()[i]);
  }
}

// Numerical gradient check of dL/dW, dL/db and dL/dX where L = sum(Y).
TEST(Dense, BackwardMatchesFiniteDifference) {
  Rng rng(5);
  Dense layer(3, 2, Activation::LeakyRelu, rng);
  Matrix x(2, 3);
  Rng data(17);
  for (auto& v : x.data()) v = data.normal();

  layer.zero_grad();
  layer.forward(x);
  const Matrix ones(2, 2, 1.0);
  const Matrix dx = layer.backward(ones);

  const double eps = 1e-6;
  const auto loss = [&](Dense& l, const Matrix& input) { return infer(l, input).total(); };

  for (std::size_t i = 0; i < layer.weights().size(); ++i) {
    const double original = layer.weights().data()[i];
    layer.weights().data()[i] = original + eps;
    const double up = loss(layer, x);
    layer.weights().data()[i] = original - eps;
    const double down = loss(layer, x);
    layer.weights().data()[i] = original;
    EXPECT_NEAR(layer.weight_grad().data()[i], (up - down) / (2 * eps), 1e-5)
        << "weight " << i;
  }
  for (std::size_t i = 0; i < layer.bias().size(); ++i) {
    const double original = layer.bias().data()[i];
    layer.bias().data()[i] = original + eps;
    const double up = loss(layer, x);
    layer.bias().data()[i] = original - eps;
    const double down = loss(layer, x);
    layer.bias().data()[i] = original;
    EXPECT_NEAR(layer.bias_grad().data()[i], (up - down) / (2 * eps), 1e-5) << "bias " << i;
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double original = x.data()[i];
    x.data()[i] = original + eps;
    const double up = loss(layer, x);
    x.data()[i] = original - eps;
    const double down = loss(layer, x);
    x.data()[i] = original;
    EXPECT_NEAR(dx.data()[i], (up - down) / (2 * eps), 1e-5) << "input " << i;
  }
}

TEST(Dense, GradientsAccumulateAcrossBackwardCalls) {
  Rng rng(7);
  Dense layer(2, 2, Activation::Identity, rng);
  const Matrix x(1, 2, 1.0);
  const Matrix g(1, 2, 1.0);
  layer.forward(x);
  layer.backward(g);
  const double once = layer.weight_grad()(0, 0);
  layer.forward(x);
  layer.backward(g);
  EXPECT_DOUBLE_EQ(layer.weight_grad()(0, 0), 2.0 * once);
  layer.zero_grad();
  EXPECT_DOUBLE_EQ(layer.weight_grad()(0, 0), 0.0);
}

// Full, Parameters and Input passes against the pre-fusion formulas:
// Z = X W + b, dZ = activate_grad(Z) * dY per element, dW = X^T dZ,
// db = column sums of dZ, dX = dZ W^T. Each pass computes its part of
// that bit for bit and leaves the rest alone, under every backend.
TEST(Dense, BackwardPassesComputeOnlyWhatTheyAskForBitForBit) {
  for (const GemmBackend backend : backends()) {
    const PinnedBackend pin(backend);
    for (const Activation activation : kAllActivations) {
      SCOPED_TRACE(std::string(gemm_backend_name(backend)) + " " +
                   activation_name(activation));
      Rng rng(11);
      Dense layer(5, 7, activation, rng);
      for (auto& b : layer.bias().data()) b = rng.normal();
      Matrix x(6, 5);
      for (auto& v : x.data()) v = rng.normal();
      x(1, 1) = -0.0;
      const Matrix g = upstream_gradient(6, 7, rng);

      Matrix z = x.matmul(layer.weights());
      z.add_row_broadcast_assign(layer.bias());
      expect_same_bits(layer.forward(x), activated(z, activation), "forward");
      Matrix dz(6, 7);
      for (std::size_t e = 0; e < dz.size(); ++e) {
        dz.data()[e] = activate_grad(z.data()[e], activation) * g.data()[e];
      }
      Matrix weight_grad(5, 7);
      weight_grad.add_transposed_matmul(x, dz);
      const Matrix bias_grad = dz.column_sums();
      const Matrix input_grad = dz.matmul_transposed(layer.weights());

      layer.zero_grad();
      expect_same_bits(layer.backward(g), input_grad, "full dX");
      expect_same_bits(layer.weight_grad(), weight_grad, "full dW");
      expect_same_bits(layer.bias_grad(), bias_grad, "full db");

      layer.zero_grad();
      EXPECT_TRUE(layer.backward(g, Backprop::Parameters).empty());
      expect_same_bits(layer.weight_grad(), weight_grad, "parameters dW");
      expect_same_bits(layer.bias_grad(), bias_grad, "parameters db");

      layer.zero_grad();
      expect_same_bits(layer.backward(g, Backprop::Input), input_grad, "input dX");
      expect_same_bits(layer.weight_grad(), Matrix(5, 7), "input dW");
      expect_same_bits(layer.bias_grad(), Matrix(1, 7), "input db");
    }
  }
}

TEST(Dense, BackwardRejectsAGradientOfTheWrongShape) {
  for (const Activation activation : kAllActivations) {
    Rng rng(13);
    Dense layer(3, 2, activation, rng);
    layer.forward(Matrix(4, 3, 0.5));
    EXPECT_THROW(layer.backward(Matrix(4, 3, 1.0)), std::invalid_argument)
        << activation_name(activation);
  }
}

TEST(Dense, InitializationIsSeedDependent) {
  Rng a(1);
  Rng b(1);
  Rng c(2);
  Dense la(4, 4, Activation::Relu, a);
  Dense lb(4, 4, Activation::Relu, b);
  Dense lc(4, 4, Activation::Relu, c);
  EXPECT_EQ(la.weights().data(), lb.weights().data());
  EXPECT_NE(la.weights().data(), lc.weights().data());
}

}  // namespace
}  // namespace edgeslice::nn
