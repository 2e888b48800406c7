// Exploration noise processes.
//
// The paper adds decaying Gaussian noise to actions during training:
// starting from N(0,1) and decaying by factor 0.9999 per update step
// (Sec. VI-A).
#pragma once

#include <vector>

#include "common/rng.h"

namespace edgeslice::rl {

class DecayingGaussianNoise {
 public:
  DecayingGaussianNoise(std::size_t dim, double initial_sigma = 1.0,
                        double decay = 0.9999, double min_sigma = 0.0)
      : dim_(dim), sigma_(initial_sigma), decay_(decay), min_sigma_(min_sigma) {}

  /// Sample a noise vector and decay sigma.
  std::vector<double> sample(Rng& rng);

  double sigma() const { return sigma_; }
  void reset(double sigma) { sigma_ = sigma; }

 private:
  std::size_t dim_;
  double sigma_;
  double decay_;
  double min_sigma_;
};

}  // namespace edgeslice::rl
