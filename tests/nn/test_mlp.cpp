#include "nn/mlp.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>

#include "bit_identity.h"
#include "common/rng.h"
#include "matrix_reference.h"

namespace edgeslice::nn {
namespace {

using test_support::same_bits;

void expect_same_bits(const std::vector<double>& actual, const std::vector<double>& expected,
                      const char* what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (std::size_t e = 0; e < actual.size(); ++e) {
    EXPECT_TRUE(same_bits(actual[e], expected[e]))
        << what << " element " << e << ": " << actual[e] << " vs " << expected[e];
  }
}

Mlp make_net(Rng& rng) {
  return Mlp({3, 8, 8, 2}, Activation::LeakyRelu, Activation::Identity, rng);
}

TEST(Mlp, RequiresAtLeastTwoSizes) {
  Rng rng(1);
  EXPECT_THROW(Mlp({4}, Activation::Relu, Activation::Identity, rng),
               std::invalid_argument);
}

TEST(Mlp, ShapesAndDims) {
  Rng rng(1);
  Mlp net = make_net(rng);
  EXPECT_EQ(net.in_dim(), 3u);
  EXPECT_EQ(net.out_dim(), 2u);
  EXPECT_EQ(net.layers().size(), 3u);
  const auto y = net.infer(Matrix(5, 3, 0.5));
  EXPECT_EQ(y.rows(), 5u);
  EXPECT_EQ(y.cols(), 2u);
}

TEST(Mlp, InferVectorMatchesInfer) {
  Rng rng(2);
  Mlp net = make_net(rng);
  const std::vector<double> x{0.1, -0.4, 0.9};
  const auto a = net.infer_vector(x);
  const auto b = net.infer(Matrix::row(x)).row_vector(0);
  EXPECT_EQ(a, b);
}

// Full-stack numerical gradient check: L = sum(net(x)).
TEST(Mlp, BackwardMatchesFiniteDifference) {
  Rng rng(3);
  Mlp net({2, 5, 3}, Activation::Tanh, Activation::Sigmoid, rng);
  Matrix x(3, 2);
  Rng data(4);
  for (auto& v : x.data()) v = data.normal();

  net.zero_grad();
  net.forward(x);
  net.backward(Matrix(3, 3, 1.0));
  const auto analytic = net.flat_gradients();

  const auto theta = net.flat_parameters();
  const double eps = 1e-6;
  for (std::size_t i = 0; i < theta.size(); i += 7) {  // sample every 7th param
    auto up = theta;
    auto down = theta;
    up[i] += eps;
    down[i] -= eps;
    net.set_flat_parameters(up);
    const double lu = net.infer(x).total();
    net.set_flat_parameters(down);
    const double ld = net.infer(x).total();
    net.set_flat_parameters(theta);
    EXPECT_NEAR(analytic[i], (lu - ld) / (2 * eps), 1e-5) << "param " << i;
  }
}

// The three passes through a whole stack, under every backend and every
// hidden/output activation pair: Parameters leaves Full's parameter
// gradients bit for bit (skipping only the first layer's dL/dInput), and
// Input returns Full's dL/dInput with every parameter gradient at zero.
TEST(Mlp, BackwardPassesMatchTheFullPassBitForBit) {
  const Activation all[] = {Activation::Identity, Activation::Relu,
                            Activation::LeakyRelu, Activation::Tanh,
                            Activation::Sigmoid,  Activation::Softplus};
  for (const GemmBackend backend : test_support::backends()) {
    const test_support::PinnedBackend pin(backend);
    for (const Activation hidden : all) {
      for (const Activation output : all) {
        SCOPED_TRACE(std::string(gemm_backend_name(backend)) + " hidden " +
                     activation_name(hidden) + " output " + activation_name(output));
        Rng rng(17);
        Mlp net({6, 9, 8, 5}, hidden, output, rng);
        Matrix x(7, 6);
        for (auto& v : x.data()) v = rng.normal();
        Matrix g(7, 5);
        for (auto& v : g.data()) v = rng.normal();
        g(0, 0) = 0.0;
        g(1, 1) = -0.0;
        g(2, 2) = std::numeric_limits<double>::quiet_NaN();
        net.forward(x);

        net.zero_grad();
        const Matrix full_input = net.backward(g);
        const std::vector<double> full_params = net.flat_gradients();

        net.zero_grad();
        EXPECT_TRUE(net.backward(g, Backprop::Parameters).empty());
        expect_same_bits(net.flat_gradients(), full_params, "parameters pass");

        net.zero_grad();
        const Matrix input = net.backward(g, Backprop::Input);
        ASSERT_EQ(input.rows(), full_input.rows());
        ASSERT_EQ(input.cols(), full_input.cols());
        expect_same_bits(input.data(), full_input.data(), "input pass");
        expect_same_bits(net.flat_gradients(),
                         std::vector<double>(net.parameter_count(), 0.0),
                         "input pass parameter gradients");
      }
    }
  }
}

TEST(Mlp, LearnsLinearRegression) {
  // y = 2 x0 - x1; MSE descent should reach near-zero loss.
  Rng rng(5);
  Mlp net({2, 16, 1}, Activation::LeakyRelu, Activation::Identity, rng);
  Adam opt(AdamConfig{.learning_rate = 0.01});
  net.attach_to(opt);
  Rng data(6);
  double loss = 0.0;
  for (int step = 0; step < 3000; ++step) {
    Matrix x(16, 2);
    for (auto& v : x.data()) v = data.uniform(-1, 1);
    Matrix target(16, 1);
    for (std::size_t r = 0; r < 16; ++r) target(r, 0) = 2 * x(r, 0) - x(r, 1);
    const auto y = net.forward(x);
    Matrix grad(16, 1);
    loss = 0.0;
    for (std::size_t r = 0; r < 16; ++r) {
      const double e = y(r, 0) - target(r, 0);
      loss += e * e / 16.0;
      grad(r, 0) = 2.0 * e / 16.0;
    }
    net.backward(grad);
    opt.step();
  }
  EXPECT_LT(loss, 1e-3);
}

TEST(Mlp, SoftUpdateInterpolates) {
  Rng rng(7);
  Mlp a({2, 4, 1}, Activation::Relu, Activation::Identity, rng);
  Mlp b({2, 4, 1}, Activation::Relu, Activation::Identity, rng);
  const double wa = a.layers()[0].weights()(0, 0);
  const double wb = b.layers()[0].weights()(0, 0);
  b.soft_update_from(a, 0.25);
  EXPECT_NEAR(b.layers()[0].weights()(0, 0), 0.25 * wa + 0.75 * wb, 1e-12);
}

TEST(Mlp, CopyParametersMakesIdentical) {
  Rng rng(8);
  Mlp a({2, 4, 1}, Activation::Relu, Activation::Identity, rng);
  Mlp b({2, 4, 1}, Activation::Relu, Activation::Identity, rng);
  b.soft_update_from(a, 1.0);  // tau = 1 is a hard copy
  const std::vector<double> x{0.3, -0.7};
  EXPECT_EQ(a.infer_vector(x), b.infer_vector(x));
}

TEST(Mlp, SoftUpdateArchitectureMismatchThrows) {
  Rng rng(9);
  Mlp a({2, 4, 1}, Activation::Relu, Activation::Identity, rng);
  Mlp b({2, 4, 4, 1}, Activation::Relu, Activation::Identity, rng);
  EXPECT_THROW(b.soft_update_from(a, 0.5), std::invalid_argument);
}

TEST(Mlp, FlatParameterRoundTrip) {
  Rng rng(10);
  Mlp net = make_net(rng);
  auto theta = net.flat_parameters();
  EXPECT_EQ(theta.size(), net.parameter_count());
  for (auto& v : theta) v += 0.5;
  net.set_flat_parameters(theta);
  EXPECT_EQ(net.flat_parameters(), theta);
  theta.pop_back();
  EXPECT_THROW(net.set_flat_parameters(theta), std::invalid_argument);
}

TEST(Mlp, SaveLoadRoundTripsExactly) {
  Rng rng(21);
  Mlp net({3, 7, 2}, Activation::LeakyRelu, Activation::Sigmoid, rng);
  std::stringstream stream;
  net.save(stream);
  const Mlp loaded = Mlp::load(stream);
  EXPECT_EQ(loaded.in_dim(), 3u);
  EXPECT_EQ(loaded.out_dim(), 2u);
  EXPECT_EQ(loaded.layers()[0].activation(), Activation::LeakyRelu);
  EXPECT_EQ(loaded.layers()[1].activation(), Activation::Sigmoid);
  const std::vector<double> x{0.31, -0.87, 1.44};
  EXPECT_EQ(net.infer_vector(x), loaded.infer_vector(x));  // bit-exact (hex floats)
}

TEST(Mlp, LoadRejectsGarbage) {
  std::stringstream bad("not an mlp");
  EXPECT_THROW(Mlp::load(bad), std::runtime_error);
  std::stringstream truncated("mlp v1\n3\n2 4 1\n2 4\n0x1p+0\n");
  EXPECT_THROW(Mlp::load(truncated), std::runtime_error);
}

// Regression: Mlp::load once parsed parameters with `in >> double`, so a
// token like "banana" silently read as 0.0 and NaN/inf weights loaded
// "successfully" — the deployed policy then produced NaN allocations with
// no hint of why. The loader now rejects both, naming the layer and
// offset that broke.
TEST(Mlp, LoadRejectsNonFiniteParameterNamingLayer) {
  Rng rng(31);
  Mlp net({2, 3, 1}, Activation::Relu, Activation::Identity, rng);
  std::stringstream stream;
  net.save(stream);
  std::string text = stream.str();
  // Replace the final parameter line (the output layer's bias) with inf.
  const std::size_t last_line = text.rfind("0x", text.size() - 2);
  ASSERT_NE(last_line, std::string::npos);
  text.replace(last_line, text.size() - 1 - last_line, "inf");
  std::stringstream bad(text);
  try {
    Mlp::load(bad);
    FAIL() << "non-finite parameter accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("non-finite parameter"), std::string::npos) << what;
    EXPECT_NE(what.find("layer"), std::string::npos) << what;
  }
}

TEST(Mlp, LoadRejectsMalformedParameterToken) {
  Rng rng(32);
  Mlp net({2, 3, 1}, Activation::Relu, Activation::Identity, rng);
  std::stringstream stream;
  net.save(stream);
  std::string text = stream.str();
  const std::size_t last_line = text.rfind("0x", text.size() - 2);
  ASSERT_NE(last_line, std::string::npos);
  text.replace(last_line, text.size() - 1 - last_line, "banana");
  std::stringstream bad(text);
  try {
    Mlp::load(bad);
    FAIL() << "malformed parameter accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("malformed parameter"), std::string::npos)
        << e.what();
  }
}

TEST(Mlp, LoadRejectsTruncationNamingOffset) {
  Rng rng(33);
  Mlp net({2, 3, 1}, Activation::Relu, Activation::Identity, rng);
  std::stringstream stream;
  net.save(stream);
  std::string text = stream.str();
  const std::size_t last_line = text.rfind("0x", text.size() - 2);
  const std::size_t line_start = text.rfind('\n', last_line);
  ASSERT_NE(line_start, std::string::npos);
  text.resize(line_start + 1);  // drop the final parameter line entirely
  std::stringstream bad(text);
  try {
    Mlp::load(bad);
    FAIL() << "truncated parameters accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated parameters"), std::string::npos)
        << e.what();
  }
}

TEST(Mlp, LoadRejectsHostileHeaderBeforeAllocating) {
  // 64 layers of width 2^20 would be a ~4 TiB allocation if the caps did
  // not fire first.
  std::stringstream huge("mlp v1\n3\n1048577 2 1\n2 4\n");
  EXPECT_THROW(Mlp::load(huge), std::runtime_error);
  std::stringstream many("mlp v1\n65\n");
  EXPECT_THROW(Mlp::load(many), std::runtime_error);
}

TEST(Mlp, CopyConstructorClones) {
  Rng rng(11);
  Mlp a = make_net(rng);
  Mlp b = a;  // Dense/Matrix are value types: this is a deep clone
  const std::vector<double> x{1.0, 2.0, 3.0};
  EXPECT_EQ(a.infer_vector(x), b.infer_vector(x));
  b.layers()[0].weights()(0, 0) += 1.0;
  EXPECT_NE(a.infer_vector(x), b.infer_vector(x));
}

}  // namespace
}  // namespace edgeslice::nn
