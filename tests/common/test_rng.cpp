#include "common/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <set>
#include <sstream>
#include <string>

namespace edgeslice {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-3.0, 5.0);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, UniformIntIsInclusive) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_int(0, 3));
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_TRUE(seen.count(0));
  EXPECT_TRUE(seen.count(3));
}

TEST(Rng, NormalHasRequestedMoments) {
  Rng rng(11);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(2.0, 3.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.5);
}

TEST(Rng, PoissonMeanMatches) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.poisson(10.0);
  EXPECT_NEAR(sum / n, 10.0, 0.2);
}

TEST(Rng, PoissonZeroRateIsZero) {
  Rng rng(13);
  EXPECT_EQ(rng.poisson(0.0), 0);
  EXPECT_EQ(rng.poisson(-1.0), 0);
}

TEST(Rng, IndexStaysInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.index(7), 7u);
  }
}

TEST(Rng, IndexZeroThrows) {
  Rng rng(5);
  EXPECT_THROW(rng.index(0), std::invalid_argument);
}

TEST(Rng, SpawnIsDeterministic) {
  Rng a(42);
  Rng b(42);
  Rng ca = a.spawn();
  Rng cb = b.spawn();
  EXPECT_DOUBLE_EQ(ca.uniform(), cb.uniform());
}

TEST(Rng, SpawnedStreamsAreIndependent) {
  Rng parent(42);
  Rng c1 = parent.spawn();
  Rng c2 = parent.spawn();
  EXPECT_NE(c1.uniform(), c2.uniform());
}

TEST(Rng, TaggedSpawnIgnoresParentState) {
  Rng a(42);
  a.uniform();  // consume some state
  Rng b(42);
  EXPECT_DOUBLE_EQ(a.spawn(9).uniform(), b.spawn(9).uniform());
}

TEST(Rng, VectorsHaveRequestedSize) {
  Rng rng(3);
  EXPECT_EQ(rng.uniforms(17).size(), 17u);
  EXPECT_EQ(rng.normals(9).size(), 9u);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ExponentialIsPositive) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) EXPECT_GT(rng.exponential(2.0), 0.0);
}

// --- Mt19937_64 against std::mt19937_64 ----------------------------------

constexpr std::uint64_t kEngineSeeds[] = {0, 1, 5489, ~std::uint64_t{0}};

template <typename Engine>
std::string engine_text(const Engine& engine) {
  std::ostringstream out;
  out << engine;
  return out.str();
}

TEST(Mt19937_64, MatchesStdForTenMillionDraws) {
  for (const std::uint64_t seed : kEngineSeeds) {
    std::mt19937_64 reference(seed);
    Mt19937_64 engine(seed);
    std::uint64_t mismatches = 0;
    for (int i = 0; i < 10'000'000; ++i) mismatches += engine() != reference();
    EXPECT_EQ(mismatches, 0u) << "seed " << seed;
  }
}

TEST(Mt19937_64, StreamTextIsByteEqualToStd) {
  for (const std::uint64_t seed : kEngineSeeds) {
    std::mt19937_64 reference(seed);
    Mt19937_64 engine(seed);
    int drawn = 0;
    for (const int position : {0, 1, 311, 312, 313}) {
      for (; drawn < position; ++drawn) ASSERT_EQ(engine(), reference());
      const std::string text = engine_text(engine);
      EXPECT_EQ(text, engine_text(reference)) << "seed " << seed << " after " << position;
      // 312 words plus the position.
      std::istringstream words(text);
      std::size_t count = 0;
      for (std::string word; words >> word;) ++count;
      EXPECT_EQ(count, Mt19937_64::state_size + 1);

      // Restoring the text continues the same stream, on both engines.
      Mt19937_64 restored(12345);
      std::istringstream in(text);
      ASSERT_TRUE(in >> restored);
      EXPECT_EQ(restored, engine);
      std::mt19937_64 reference_restored;
      std::istringstream reference_in(text);
      reference_in >> reference_restored;
      for (int i = 0; i < 1000; ++i) ASSERT_EQ(restored(), reference_restored());
    }
  }
}

TEST(Mt19937_64, StreamReadRejectsBadPositionAndKeepsState) {
  Mt19937_64 engine(7);
  engine();
  std::string text = engine_text(engine);
  const std::string head = text.substr(0, text.rfind(' ') + 1);

  Mt19937_64 target(99);
  const Mt19937_64 before = target;
  std::istringstream too_far(head + "313");
  EXPECT_FALSE(too_far >> target);
  EXPECT_EQ(target, before);
  std::istringstream truncated(head);
  EXPECT_FALSE(truncated >> target);
  EXPECT_EQ(target, before);
  std::istringstream at_end(head + "312");
  EXPECT_TRUE(at_end >> target);
}

TEST(Rng, DistributionsMatchStdEngine) {
  for (const std::uint64_t seed : kEngineSeeds) {
    Rng rng(seed);
    std::mt19937_64 reference(seed);
    for (int i = 0; i < 2000; ++i) {
      ASSERT_EQ(rng.uniform(-2.0, 3.0),
                std::uniform_real_distribution<double>(-2.0, 3.0)(reference));
      ASSERT_EQ(rng.normal(1.0, 2.0), std::normal_distribution<double>(1.0, 2.0)(reference));
      ASSERT_EQ(rng.uniform_int(-5, 1000),
                std::uniform_int_distribution<std::int64_t>(-5, 1000)(reference));
      ASSERT_EQ(rng.exponential(0.7), std::exponential_distribution<double>(0.7)(reference));
      ASSERT_EQ(rng.chance(0.3), std::bernoulli_distribution(0.3)(reference));
      ASSERT_EQ(rng.lognormal(0.5, 0.25),
                std::lognormal_distribution<double>(0.5, 0.25)(reference));
      for (const double mean : {12.0, 12.5, 40.0, 3600.0, 1e6}) {
        ASSERT_EQ(rng.poisson(mean), std::poisson_distribution<int>(mean)(reference));
      }
    }
  }
}

TEST(Rng, SmallMeanPoissonMatchesStdDistribution) {
  // The inline product loop against the distribution object, on a grid
  // over (0, 12] that includes the crossover, for several seeds.
  for (const std::uint64_t seed : {std::uint64_t{3}, std::uint64_t{5}, ~std::uint64_t{0}}) {
    Rng rng(seed);
    std::mt19937_64 reference(seed);
    for (int round = 0; round < 20; ++round) {
      for (int k = 1; k <= 480; ++k) {
        const double mean = 0.025 * k;
        ASSERT_EQ(rng.poisson(mean), std::poisson_distribution<int>(mean)(reference))
            << "seed " << seed << " mean " << mean;
      }
      for (const double mean : {1e-300, 1e-9, 0.1, 11.999999999999998}) {
        ASSERT_EQ(rng.poisson(mean), std::poisson_distribution<int>(mean)(reference));
      }
    }
  }
}

TEST(Rng, PoissonRejectsNonFiniteAndHugeMeans) {
  Rng rng(13);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(rng.poisson(inf), std::invalid_argument);
  EXPECT_THROW(rng.poisson(-inf), std::invalid_argument);
  EXPECT_THROW(rng.poisson(std::nan("")), std::invalid_argument);
  EXPECT_THROW(rng.poisson(1e10), std::invalid_argument);
  EXPECT_THROW(rng.poisson(std::nextafter(Rng::kMaxPoissonMean, inf)), std::invalid_argument);
  EXPECT_GT(rng.poisson(Rng::kMaxPoissonMean), 0);
}

TEST(Rng, DeserializeRejectsBadPositionAndTrailingText) {
  Rng rng(21);
  rng.uniform();
  const std::string blob = rng.serialize();
  EXPECT_NO_THROW(Rng::deserialize(blob));
  EXPECT_NO_THROW(Rng::deserialize(blob + " "));
  EXPECT_THROW(Rng::deserialize(blob + " 7"), std::runtime_error);
  EXPECT_THROW(Rng::deserialize(blob + "x"), std::runtime_error);
  const std::string head = blob.substr(0, blob.rfind(' ') + 1);
  EXPECT_NO_THROW(Rng::deserialize(head + "312"));
  EXPECT_THROW(Rng::deserialize(head + "313"), std::runtime_error);
  EXPECT_THROW(Rng::deserialize(head + "18446744073709551615"), std::runtime_error);
}

}  // namespace
}  // namespace edgeslice
