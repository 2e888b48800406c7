#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace edgeslice {

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) / static_cast<double>(xs.size());
}

double stddev(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(xs.size() - 1));
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) throw std::invalid_argument("percentile: empty input");
  if (p < 0.0 || p > 100.0) throw std::invalid_argument("percentile: p out of range");
  std::sort(xs.begin(), xs.end());
  const double pos = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

double ecdf_at(const std::vector<double>& xs, double threshold) {
  if (xs.empty()) return 0.0;
  const auto n = static_cast<double>(
      std::count_if(xs.begin(), xs.end(), [&](double x) { return x <= threshold; }));
  return n / static_cast<double>(xs.size());
}

void RunningStat::add(double x) {
  ++n_;
  if (n_ == 1) {
    mean_ = x;
    m2_ = 0.0;
    min_ = max_ = x;
    return;
  }
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

}  // namespace edgeslice
