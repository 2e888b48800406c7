#include "nn/adam.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "bit_identity.h"
#include "common/rng.h"

namespace edgeslice::nn {
namespace {

using test_support::same_bits;

TEST(Adam, AttachValidatesShapes) {
  Adam opt;
  Matrix p(2, 2);
  Matrix g(2, 3);
  EXPECT_THROW(opt.attach(&p, &g), std::invalid_argument);
  EXPECT_THROW(opt.attach(nullptr, &g), std::invalid_argument);
}

TEST(Adam, FirstStepMovesByLearningRate) {
  // With bias correction, the first Adam step is ~lr * sign(grad).
  Adam opt(AdamConfig{.learning_rate = 0.1});
  Matrix p(1, 1, 5.0);
  Matrix g(1, 1, 2.0);
  opt.attach(&p, &g);
  opt.step();
  EXPECT_NEAR(p(0, 0), 5.0 - 0.1, 1e-6);
}

TEST(Adam, StepZeroesGradients) {
  Adam opt;
  Matrix p(1, 2, 0.0);
  Matrix g(1, 2, 1.0);
  opt.attach(&p, &g);
  opt.step();
  EXPECT_DOUBLE_EQ(g(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(g(0, 1), 0.0);
}

TEST(Adam, MinimizesQuadratic) {
  // minimize (x - 3)^2 by feeding grad = 2(x-3).
  Adam opt(AdamConfig{.learning_rate = 0.05});
  Matrix x(1, 1, -4.0);
  Matrix g(1, 1, 0.0);
  opt.attach(&x, &g);
  for (int i = 0; i < 2000; ++i) {
    g(0, 0) = 2.0 * (x(0, 0) - 3.0);
    opt.step();
  }
  EXPECT_NEAR(x(0, 0), 3.0, 1e-3);
}

TEST(Adam, ScaleFlipsToAscent) {
  // maximize -(x-3)^2 with scale = -1 applied to the descent gradient.
  Adam opt(AdamConfig{.learning_rate = 0.05});
  Matrix x(1, 1, 0.0);
  Matrix g(1, 1, 0.0);
  opt.attach(&x, &g);
  for (int i = 0; i < 2000; ++i) {
    g(0, 0) = -2.0 * (x(0, 0) - 3.0);  // gradient of the objective
    opt.step(-1.0);                    // ascend
  }
  EXPECT_NEAR(x(0, 0), 3.0, 1e-3);
}

TEST(Adam, CountsSteps) {
  Adam opt;
  Matrix p(1, 1);
  Matrix g(1, 1);
  opt.attach(&p, &g);
  opt.step();
  opt.step();
  EXPECT_EQ(opt.step_count(), 2u);
}

TEST(Adam, LearningRateAdjustable) {
  Adam opt(AdamConfig{.learning_rate = 0.1});
  opt.set_learning_rate(0.0);
  Matrix p(1, 1, 1.0);
  Matrix g(1, 1, 5.0);
  opt.attach(&p, &g);
  opt.step();
  EXPECT_DOUBLE_EQ(p(0, 0), 1.0);
}

/// The documented update, one parameter at a time: the reference both
/// kernels must reproduce bit for bit.
struct ReferenceAdam {
  AdamConfig config;
  std::size_t t = 0;
  std::vector<std::vector<double>> p, m, v;

  void step(std::vector<std::vector<double>>& g, double scale) {
    ++t;
    const double b1t = 1.0 - std::pow(config.beta1, static_cast<double>(t));
    const double b2t = 1.0 - std::pow(config.beta2, static_cast<double>(t));
    for (std::size_t s = 0; s < p.size(); ++s) {
      for (std::size_t i = 0; i < p[s].size(); ++i) {
        const double grad = g[s][i] * scale;
        m[s][i] = config.beta1 * m[s][i] + (1.0 - config.beta1) * grad;
        v[s][i] = config.beta2 * v[s][i] + (1.0 - config.beta2) * grad * grad;
        const double m_hat = m[s][i] / b1t;
        const double v_hat = v[s][i] / b2t;
        p[s][i] -= config.learning_rate * m_hat / (std::sqrt(v_hat) + config.epsilon);
        g[s][i] = 0.0;
      }
    }
  }
};

// Ragged slots (1 to 9 parameters, then 64 x 64) cover every split
// between four-lane blocks and the scalar remainder; the gradients carry
// +0.0, -0.0, subnormals, +-inf and NaN. Under each backend the
// parameters, both moments and the zeroed gradients equal the reference.
TEST(Adam, StepMatchesTheReferenceBitForBitUnderEveryBackend) {
  const double inf = std::numeric_limits<double>::infinity();
  const double specials[] = {0.0, -0.0, 4.9e-324, -2.2e-310, inf, -inf,
                             std::numeric_limits<double>::quiet_NaN()};
  std::vector<std::pair<std::size_t, std::size_t>> shapes;
  for (std::size_t cols = 1; cols <= 9; ++cols) shapes.emplace_back(1, cols);
  shapes.emplace_back(64, 64);
  for (const GemmBackend backend : test_support::backends()) {
    const test_support::PinnedBackend pin(backend);
    SCOPED_TRACE(gemm_backend_name(backend));
    const AdamConfig config{.learning_rate = 0.003};
    Adam opt(config);
    ReferenceAdam reference{config, 0, {}, {}, {}};
    Rng rng(19);
    std::vector<Matrix> params, grads;
    params.reserve(shapes.size());
    grads.reserve(shapes.size());
    for (const auto& [rows, cols] : shapes) {
      params.emplace_back(rows, cols);
      grads.emplace_back(rows, cols);
      for (auto& w : params.back().data()) w = rng.normal();
      opt.attach(&params.back(), &grads.back());
      reference.p.push_back(params.back().data());
      reference.m.emplace_back(rows * cols, 0.0);
      reference.v.emplace_back(rows * cols, 0.0);
    }
    for (int step = 0; step < 5; ++step) {
      std::vector<std::vector<double>> reference_grads;
      for (std::size_t s = 0; s < grads.size(); ++s) {
        auto& g = grads[s].data();
        for (std::size_t i = 0; i < g.size(); ++i) {
          g[i] = (i + s + static_cast<std::size_t>(step)) % 5 == 0
                     ? specials[(i + static_cast<std::size_t>(step)) % std::size(specials)]
                     : rng.normal();
        }
        reference_grads.push_back(g);
      }
      const double scale = step % 2 == 0 ? -0.75 : 1.5;
      opt.step(scale);
      reference.step(reference_grads, scale);

      const AdamState state = opt.export_state();
      std::size_t offset = 0;
      for (std::size_t s = 0; s < params.size(); ++s) {
        for (std::size_t i = 0; i < params[s].size(); ++i) {
          const std::string where = "step " + std::to_string(step) + " slot " +
                                    std::to_string(s) + " index " + std::to_string(i);
          ASSERT_TRUE(same_bits(params[s].data()[i], reference.p[s][i])) << where;
          ASSERT_TRUE(same_bits(state.m[offset + i], reference.m[s][i])) << where;
          ASSERT_TRUE(same_bits(state.v[offset + i], reference.v[s][i])) << where;
          ASSERT_TRUE(same_bits(grads[s].data()[i], 0.0)) << where;
        }
        offset += params[s].size();
      }
    }
  }
}

}  // namespace
}  // namespace edgeslice::nn
