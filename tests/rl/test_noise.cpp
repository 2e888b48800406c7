#include "rl/noise.h"

#include <gtest/gtest.h>

#include <cmath>

namespace edgeslice::rl {
namespace {

TEST(DecayingGaussianNoise, SigmaDecaysPerSample) {
  // The paper: noise starts from N(0,1), decays by 0.9999 per update step.
  DecayingGaussianNoise noise(2, 1.0, 0.9999);
  Rng rng(1);
  EXPECT_DOUBLE_EQ(noise.sigma(), 1.0);
  noise.sample(rng);
  EXPECT_NEAR(noise.sigma(), 0.9999, 1e-12);
  for (int i = 0; i < 99; ++i) noise.sample(rng);
  EXPECT_NEAR(noise.sigma(), std::pow(0.9999, 100), 1e-9);
}

TEST(DecayingGaussianNoise, RespectsFloor) {
  DecayingGaussianNoise noise(1, 1.0, 0.1, 0.5);
  Rng rng(2);
  for (int i = 0; i < 50; ++i) noise.sample(rng);
  EXPECT_DOUBLE_EQ(noise.sigma(), 0.5);
}

TEST(DecayingGaussianNoise, SampleDimension) {
  DecayingGaussianNoise noise(6);
  Rng rng(3);
  EXPECT_EQ(noise.sample(rng).size(), 6u);
}

TEST(DecayingGaussianNoise, InitialSigmaControlsSpread) {
  Rng rng(4);
  DecayingGaussianNoise wide(1, 5.0, 1.0);
  DecayingGaussianNoise narrow(1, 0.01, 1.0);
  double wide_abs = 0.0;
  double narrow_abs = 0.0;
  for (int i = 0; i < 500; ++i) {
    wide_abs += std::abs(wide.sample(rng)[0]);
    narrow_abs += std::abs(narrow.sample(rng)[0]);
  }
  EXPECT_GT(wide_abs, 20.0 * narrow_abs);
}

TEST(DecayingGaussianNoise, ResetRestoresSigma) {
  DecayingGaussianNoise noise(1, 1.0, 0.5);
  Rng rng(5);
  noise.sample(rng);
  noise.reset(2.0);
  EXPECT_DOUBLE_EQ(noise.sigma(), 2.0);
}

}  // namespace
}  // namespace edgeslice::rl
