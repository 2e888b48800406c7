#include "common/rng.h"

#include <istream>
#include <ostream>
#include <sstream>

namespace edgeslice {

void Mt19937_64::twist() {
  constexpr std::size_t n = state_size;
  constexpr std::size_t m = 156;
  constexpr result_type upper = ~result_type{0} << 31;
  constexpr result_type lower = ~upper;
  constexpr result_type a = 0xb5026f5aa96619e9ULL;
  const auto next = [&](result_type word, result_type following, result_type far) {
    const result_type y = (word & upper) | (following & lower);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & a);
  };
  for (std::size_t k = 0; k < n - m; ++k) x_[k] = next(x_[k], x_[k + 1], x_[k + m]);
  for (std::size_t k = n - m; k < n - 1; ++k) x_[k] = next(x_[k], x_[k + 1], x_[k + m - n]);
  x_[n - 1] = next(x_[n - 1], x_[0], x_[m - 1]);
  p_ = 0;
}

std::ostream& operator<<(std::ostream& out, const Mt19937_64& engine) {
  // libstdc++'s formatting state for engine text, restored afterwards.
  const auto flags = out.flags();
  const auto fill = out.fill();
  out.flags(std::ios_base::dec | std::ios_base::fixed | std::ios_base::left);
  out.fill(out.widen(' '));
  for (const auto word : engine.x_) out << word << ' ';
  out << engine.p_;
  out.flags(flags);
  out.fill(fill);
  return out;
}

std::istream& operator>>(std::istream& in, Mt19937_64& engine) {
  const auto flags = in.flags();
  in.flags(std::ios_base::dec | std::ios_base::skipws);
  Mt19937_64 read;
  for (auto& word : read.x_) in >> word;
  in >> read.p_;
  if (in && read.p_ > Mt19937_64::state_size) in.setstate(std::ios_base::failbit);
  if (in) engine = read;
  in.flags(flags);
  return in;
}

namespace {

// SplitMix64 finalizer: decorrelates sequential seeds.
std::uint64_t mix(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng Rng::spawn() {
  ++spawn_count_;
  return Rng(mix(seed_ ^ mix(spawn_count_)));
}

Rng Rng::spawn(std::uint64_t tag) const {
  return Rng(mix(seed_ ^ mix(tag + 0x51aceu)));
}

std::string Rng::serialize() const {
  std::ostringstream out;
  out << seed_ << ' ' << spawn_count_ << ' ' << engine_;
  return out.str();
}

Rng Rng::deserialize(const std::string& blob) {
  std::istringstream in(blob);
  std::uint64_t seed = 0;
  std::uint64_t spawn_count = 0;
  in >> seed >> spawn_count;
  if (!in) throw std::runtime_error("Rng::deserialize: malformed state blob");
  Rng rng(seed);
  rng.spawn_count_ = spawn_count;
  in >> rng.engine_;
  if (!in) throw std::runtime_error("Rng::deserialize: malformed engine state");
  if ((in >> std::ws).peek() != std::istringstream::traits_type::eof())
    throw std::runtime_error("Rng::deserialize: trailing text after the engine state");
  return rng;
}

}  // namespace edgeslice
