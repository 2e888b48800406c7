// Seeded random number generation for reproducible experiments.
//
// Every stochastic component in the repository draws from an explicitly
// passed Rng so that a single seed reproduces an entire experiment
// bit-for-bit (DESIGN.md decision 4).
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <iosfwd>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

namespace edgeslice {

/// MT19937-64 with std::mt19937_64's parameters, seeding, output stream
/// and stream text (312 state words, then the position), so it can stand
/// in for it bit for bit. The only difference is the twist: it selects the
/// matrix row with a mask, `(0 - (y & 1)) & a`, where libstdc++ writes
/// `(y & 1) ? a : 0` and gets a data-dependent branch that mispredicts on
/// half the words. Plain scalar code; the std distributions accept it
/// because min() and max() are the same constants.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t state_size = 312;

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// std::mt19937_64's seeding (its default seed is 5489).
  explicit Mt19937_64(result_type seed = 5489u) {
    x_[0] = seed;
    for (std::size_t i = 1; i < state_size; ++i) {
      x_[i] = 6364136223846793005ULL * (x_[i - 1] ^ (x_[i - 1] >> 62)) + i;
    }
  }

  result_type operator()() {
    if (p_ >= state_size) twist();
    result_type z = x_[p_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    z ^= z >> 43;
    return z;
  }

  friend bool operator==(const Mt19937_64&, const Mt19937_64&) = default;

  /// std::mt19937_64's text: the 312 words and the position, in decimal,
  /// each followed by one space except the last.
  friend std::ostream& operator<<(std::ostream& out, const Mt19937_64& engine);
  /// Inverse of operator<<. Sets failbit, leaving the engine unchanged, on
  /// a malformed word or a position above 312.
  friend std::istream& operator>>(std::istream& in, Mt19937_64& engine);

 private:
  void twist();

  std::array<result_type, state_size> x_{};
  std::size_t p_ = state_size;
};

/// A seeded random stream over Mt19937_64 (std::mt19937_64's stream).
///
/// Rng is cheap to copy but is normally passed by reference so that
/// consumption of randomness advances a single stream. Use spawn() to
/// derive statistically independent child streams (e.g. one per
/// orchestration agent) from a parent.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed), seed_(seed) {}

  /// Uniform double in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Gaussian with the given mean and standard deviation.
  double normal(double mean = 0.0, double stddev = 1.0) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Log-normal: exp(N(mu, sigma)).
  double lognormal(double mu, double sigma) {
    return std::lognormal_distribution<double>(mu, sigma)(engine_);
  }

  /// Largest Poisson mean poisson() accepts. Far above it libstdc++'s
  /// sampler can stop returning (a mean of 1e10 does not return on an x86
  /// host with GCC 12), and +inf gives no meaningful count.
  static constexpr double kMaxPoissonMean = 1073741824.0;  // 2^30

  /// Poisson-distributed count with the given mean; 0 for a mean <= 0.
  /// Throws std::invalid_argument for a non-finite mean or one above
  /// kMaxPoissonMean. Bit-identical to std::poisson_distribution<int>:
  /// below 12 this is libstdc++'s own product-of-uniforms loop with the
  /// same threshold and the same uniforms, without building a
  /// distribution object per call; from 12 up it is that distribution.
  int poisson(double mean) {
    if (!std::isfinite(mean) || mean > kMaxPoissonMean)
      throw std::invalid_argument("Rng::poisson: mean must be finite and <= 2^30");
    if (mean <= 0.0) return 0;
    if (mean >= 12.0) return std::poisson_distribution<int>(mean)(engine_);
    const double threshold = std::exp(-mean);
    int count = 0;
    double product = 1.0;
    do {
      product *= canonical();
      count += 1;
    } while (product > threshold);
    return count - 1;
  }

  /// Exponential inter-arrival time with the given rate (events per unit time).
  double exponential(double rate) {
    return std::exponential_distribution<double>(rate)(engine_);
  }

  /// Bernoulli trial.
  bool chance(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Uniform index in [0, n).
  std::size_t index(std::size_t n) {
    if (n == 0) throw std::invalid_argument("Rng::index: n must be > 0");
    return static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(n) - 1));
  }

  /// Vector of iid uniforms.
  std::vector<double> uniforms(std::size_t n, double lo = 0.0, double hi = 1.0) {
    std::vector<double> v(n);
    for (auto& x : v) x = uniform(lo, hi);
    return v;
  }

  /// Vector of iid Gaussians.
  std::vector<double> normals(std::size_t n, double mean = 0.0, double stddev = 1.0) {
    std::vector<double> v(n);
    for (auto& x : v) x = normal(mean, stddev);
    return v;
  }

  /// Derive an independent child stream. Children with distinct tags (or
  /// consecutive calls) get distinct seeds derived by hashing.
  Rng spawn();

  /// Derive a deterministic child stream from a tag, independent of how
  /// much randomness the parent has consumed.
  Rng spawn(std::uint64_t tag) const;

  /// Capture the complete stream state — construction seed, spawn
  /// counter, and the engine words — as a portable text blob (the
  /// std::mt19937_64 stream representation). deserialize() of the
  /// blob yields a stream that continues bit-identically to this one;
  /// the checkpoint subsystem (FORMATS.md "RNG stream blob") embeds it.
  std::string serialize() const;
  /// Inverse of serialize(). Throws std::runtime_error on a malformed blob,
  /// an engine position above 312, or trailing text.
  static Rng deserialize(const std::string& blob);

  std::uint64_t seed() const { return seed_; }

 private:
  /// std::generate_canonical<double, 53> over one 64-bit draw, exactly:
  /// the draw rounded once to double, scaled by 2^-64, and clamped below
  /// 1. Splitting it into two exact 32-bit halves lets the one rounding
  /// happen in the add, without the branch of an unsigned 64-bit convert.
  double canonical() {
    const std::uint64_t bits = engine_();
    const double high = static_cast<double>(static_cast<std::uint32_t>(bits >> 32));
    const double low = static_cast<double>(static_cast<std::uint32_t>(bits));
    const double u = (high * 0x1p32 + low) * 0x1p-64;
    return u < 1.0 ? u : 0x1.fffffffffffffp-1;  // nextafter(1.0, 0.0)
  }

  Mt19937_64 engine_;
  std::uint64_t seed_ = 0;
  std::uint64_t spawn_count_ = 0;
};

}  // namespace edgeslice
