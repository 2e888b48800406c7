// Descriptive statistics used by the benchmark harness and tests.
#pragma once

#include <cstddef>
#include <vector>

namespace edgeslice {

/// Arithmetic mean; 0 for an empty range.
double mean(const std::vector<double>& xs);

/// Sample standard deviation (n-1 denominator); 0 when fewer than 2 samples.
double stddev(const std::vector<double>& xs);

/// Linear-interpolated percentile, p in [0, 100]. Throws on empty input.
double percentile(std::vector<double> xs, double p);

/// Empirical CDF evaluated at `threshold`: fraction of samples <= threshold.
double ecdf_at(const std::vector<double>& xs, double threshold);

/// Streaming mean/extremes accumulator (Welford's algorithm; m2() / (n - 1)
/// is the sample variance).
class RunningStat {
 public:
  void add(double x);
  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double min() const { return min_; }
  double max() const { return max_; }
  /// Welford's second central moment sum (exposed for checkpointing).
  double m2() const { return m2_; }

  /// Restore a previously captured accumulator state verbatim, so a
  /// training run resumed from a checkpoint continues the same window
  /// statistics bit-identically. The caller supplies the raw fields as
  /// read back from count()/mean()/m2()/min()/max().
  void restore(std::size_t n, double mean_value, double m2_value, double min_value,
               double max_value) {
    n_ = n;
    mean_ = mean_value;
    m2_ = m2_value;
    min_ = min_value;
    max_ = max_value;
  }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace edgeslice
