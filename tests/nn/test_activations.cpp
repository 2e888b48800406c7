#include "nn/activations.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "bit_identity.h"
#include "common/rng.h"
#include "matrix_reference.h"

namespace edgeslice::nn {
namespace {

using test_support::same_bits;

class ActivationGradientTest : public ::testing::TestWithParam<Activation> {};

// Property: analytic derivative matches central finite difference.
TEST_P(ActivationGradientTest, MatchesFiniteDifference) {
  const Activation a = GetParam();
  const double eps = 1e-6;
  for (double z : {-2.0, -0.5, 0.3, 1.7, 4.0}) {
    const double fd = (activate(z + eps, a) - activate(z - eps, a)) / (2 * eps);
    EXPECT_NEAR(activate_grad(z, a), fd, 1e-5) << activation_name(a) << " at z=" << z;
  }
}

INSTANTIATE_TEST_SUITE_P(AllActivations, ActivationGradientTest,
                         ::testing::Values(Activation::Identity, Activation::Relu,
                                           Activation::LeakyRelu, Activation::Tanh,
                                           Activation::Sigmoid, Activation::Softplus),
                         [](const auto& param_info) {
                           return activation_name(param_info.param);
                         });

TEST(Activations, ReluClampsNegative) {
  EXPECT_DOUBLE_EQ(activate(-3.0, Activation::Relu), 0.0);
  EXPECT_DOUBLE_EQ(activate(2.0, Activation::Relu), 2.0);
}

TEST(Activations, LeakyReluSlope) {
  EXPECT_DOUBLE_EQ(activate(-1.0, Activation::LeakyRelu), -kLeakyReluSlope);
  EXPECT_DOUBLE_EQ(activate_grad(-1.0, Activation::LeakyRelu), kLeakyReluSlope);
  EXPECT_DOUBLE_EQ(activate_grad(1.0, Activation::LeakyRelu), 1.0);
}

TEST(Activations, SigmoidRange) {
  EXPECT_NEAR(activate(0.0, Activation::Sigmoid), 0.5, 1e-12);
  EXPECT_GT(activate(-30.0, Activation::Sigmoid), 0.0);
  EXPECT_LT(activate(30.0, Activation::Sigmoid), 1.0 + 1e-12);
}

TEST(Activations, TanhOddSymmetry) {
  EXPECT_NEAR(activate(1.3, Activation::Tanh), -activate(-1.3, Activation::Tanh), 1e-12);
}

TEST(Activations, SoftplusLargeInputStable) {
  EXPECT_NEAR(activate(100.0, Activation::Softplus), 100.0, 1e-9);
  EXPECT_GT(activate(0.0, Activation::Softplus), 0.0);
}

TEST(Activations, MatrixFormMatchesScalar) {
  Matrix z{{-1.0, 0.0, 2.0}};
  Matrix y = z;
  activate_assign(y, Activation::Sigmoid);
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_DOUBLE_EQ(y(0, c), activate(z(0, c), Activation::Sigmoid));
  }
}

// The fused backward product against its definition, activate_grad(z, a)
// * g per element, on every pairing of ActivateAssignTest's special
// values (+-0, +-NaN, +-inf, subnormals) for z and g, plus normals.
TEST_P(ActivationGradientTest, FusedProductBitIdenticalToGradTimesUpstream) {
  const Activation a = GetParam();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double specials[] = {-0.0, 0.0, nan, -nan, inf, -inf, -2.5, 3.0, 1e-310, -1e-310};
  constexpr std::size_t kSpecials = std::size(specials);
  Rng rng(23);
  Matrix z(kSpecials + 3, kSpecials);
  Matrix g(kSpecials + 3, kSpecials);
  for (std::size_t r = 0; r < z.rows(); ++r) {
    for (std::size_t c = 0; c < z.cols(); ++c) {
      z(r, c) = r < kSpecials ? specials[r] : rng.normal();
      g(r, c) = specials[c];
    }
  }
  const Matrix cache = grad_reads_pre_activation(a) ? z : activated(z, a);
  Matrix out;
  activate_grad_product(cache, g, a, out);
  ASSERT_EQ(out.rows(), z.rows());
  ASSERT_EQ(out.cols(), z.cols());
  for (std::size_t e = 0; e < z.size(); ++e) {
    const double expected = activate_grad(z.data()[e], a) * g.data()[e];
    EXPECT_TRUE(same_bits(out.data()[e], expected))
        << activation_name(a) << " z=" << z.data()[e] << " g=" << g.data()[e] << ": "
        << out.data()[e] << " vs " << expected;
  }
  EXPECT_THROW(activate_grad_product(cache, Matrix(1, 1), a, out), std::invalid_argument);
}

}  // namespace
}  // namespace edgeslice::nn
