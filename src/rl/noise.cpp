#include "rl/noise.h"

#include <algorithm>
#include <cmath>

namespace edgeslice::rl {

std::vector<double> DecayingGaussianNoise::sample(Rng& rng) {
  std::vector<double> noise(dim_);
  for (auto& n : noise) n = rng.normal(0.0, sigma_);
  sigma_ = std::max(min_sigma_, sigma_ * decay_);
  return noise;
}

}  // namespace edgeslice::rl
