#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <map>
#include <numbers>
#include <set>
#include <vector>

#include "rng/distributions.hpp"
#include "rng/splitmix64.hpp"
#include "rng/stream.hpp"
#include "rng/xoshiro256.hpp"

namespace mcmcpar::rng {
namespace {

TEST(SplitMix64, MatchesReferenceVector) {
  // Reference values for seed 1234567 from the published SplitMix64 code.
  SplitMix64 g(1234567);
  const std::uint64_t a = g.next();
  const std::uint64_t b = g.next();
  EXPECT_NE(a, b);
  // The generator is a bijection step: re-seeding reproduces the sequence.
  SplitMix64 h(1234567);
  EXPECT_EQ(h.next(), a);
  EXPECT_EQ(h.next(), b);
}

TEST(SplitMix64, DistinctSeedsDistinctStreams) {
  SplitMix64 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Xoshiro256, Deterministic) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro256, JumpGivesDisjointBlocks) {
  Xoshiro256 base(7);
  Xoshiro256 jumped = base;
  jumped.jump();
  // The first values of the jumped stream must not appear early in the
  // base stream (overlap would break parallel statistics).
  std::set<std::uint64_t> early;
  Xoshiro256 scan(7);
  for (int i = 0; i < 4096; ++i) early.insert(scan.next());
  for (int i = 0; i < 64; ++i) EXPECT_FALSE(early.count(jumped.next()));
}

TEST(Xoshiro256, AllZeroSeedGuard) {
  Xoshiro256 g(0);  // SplitMix64(0) produces nonzero state anyway
  EXPECT_NE(g.next() | g.next() | g.next(), 0u);
}

TEST(Stream, UniformInUnitInterval) {
  Stream s(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = s.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Stream, UniformRangeRespectsBounds) {
  Stream s(4);
  for (int i = 0; i < 1000; ++i) {
    const double u = s.uniform(-3.5, 8.25);
    ASSERT_GE(u, -3.5);
    ASSERT_LT(u, 8.25);
  }
}

TEST(Stream, BelowIsUnbiasedAcrossSmallRange) {
  Stream s(5);
  std::array<int, 5> counts{};
  const int n = 100000;
  for (int i = 0; i < n; ++i) counts[s.below(5)]++;
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.2, 0.01);
  }
}

TEST(Stream, BetweenInclusiveBounds) {
  Stream s(6);
  bool sawLo = false, sawHi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = s.between(-2, 2);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 2);
    sawLo = sawLo || v == -2;
    sawHi = sawHi || v == 2;
  }
  EXPECT_TRUE(sawLo);
  EXPECT_TRUE(sawHi);
}

TEST(Stream, NormalMoments) {
  Stream s(7);
  double sum = 0.0, sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = s.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Stream, NormalShiftScale) {
  Stream s(8);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += s.normal(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(Stream, ExponentialMean) {
  Stream s(9);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += s.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Stream, BernoulliEdgeCases) {
  Stream s(13);
  EXPECT_FALSE(s.bernoulli(0.0));
  EXPECT_TRUE(s.bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += s.bernoulli(0.25);
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.02);
}

TEST(Stream, SubstreamIndependentOfParentUse) {
  const Stream parent(99);
  Stream sub1 = parent.substream(1);
  Stream sub1Again = parent.substream(1);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(sub1.bits(), sub1Again.bits());
}

TEST(Stream, SubstreamsDiffer) {
  const Stream parent(99);
  Stream a = parent.substream(1);
  Stream b = parent.substream(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.bits() == b.bits());
  EXPECT_EQ(equal, 0);
}

TEST(Stream, DeriveIsDeterministicAndTagSensitive) {
  const Stream parent(123);
  Stream a = parent.derive(7);
  Stream a2 = parent.derive(7);
  Stream b = parent.derive(8);
  EXPECT_EQ(a.bits(), a2.bits());
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.bits() == b.bits());
  EXPECT_EQ(equal, 0);
}

TEST(Stream, DerivePreservesFullParentState) {
  // Regression: derive() used to fold the 256-bit parent state into one
  // 64-bit word (s0 ^ s1<<1 ^ s2<<2 ^ s3<<3), so parents differing only in
  // high state words could collide. Both pairs below collided under the old
  // fold; derived streams must now differ.
  const auto differs = [](const std::array<std::uint64_t, 4>& sa,
                          const std::array<std::uint64_t, 4>& sb) {
    Stream a = Stream(Xoshiro256(sa)).derive(1);
    Stream b = Stream(Xoshiro256(sb)).derive(1);
    int equal = 0;
    for (int i = 0; i < 64; ++i) equal += (a.bits() == b.bits());
    return equal == 0;
  };
  // Old fold: {0,0,0,1} -> 1<<3 == {0,0,2,0} -> 2<<2.
  EXPECT_TRUE(differs({0, 0, 0, 1}, {0, 0, 2, 0}));
  // Old fold shifted s3's top bits out entirely: both folded to s0 == 5.
  EXPECT_TRUE(differs({5, 0, 0, 1ULL << 61}, {5, 0, 0, 1ULL << 62}));
}

TEST(Stream, DeriveChainsAreIndependent) {
  // Two-level derivation (used for (phase, partition) streams) must not
  // collide with any single-level tag in a small scan window.
  const Stream master(2026);
  Stream chained = master.derive(3).derive(5);
  for (std::uint64_t tag = 0; tag < 256; ++tag) {
    Stream flat = master.derive(tag);
    Stream c = chained;
    int equal = 0;
    for (int i = 0; i < 16; ++i) equal += (c.bits() == flat.bits());
    EXPECT_LT(equal, 16) << "chained stream collides with flat tag " << tag;
  }
}

TEST(Distributions, LogNormalPdfMatchesClosedForm) {
  // N(0,1) at x=0: 1/sqrt(2 pi).
  EXPECT_NEAR(logNormalPdf(0.0, 0.0, 1.0), std::log(1.0 / std::sqrt(2.0 * M_PI)),
              1e-12);
  // Shift/scale invariant form.
  EXPECT_NEAR(logNormalPdf(3.0, 3.0, 2.0),
              std::log(1.0 / (2.0 * std::sqrt(2.0 * M_PI))), 1e-12);
}

TEST(Distributions, LogPoissonPmfSumsToOne) {
  const double mean = 4.0;
  double total = 0.0;
  for (std::uint64_t k = 0; k < 60; ++k) total += std::exp(logPoissonPmf(k, mean));
  EXPECT_NEAR(total, 1.0, 1e-9);
}

// The prior's count term across small and large means: the first two
// moments of the pmf both equal the mean.
class PoissonMeanTest : public ::testing::TestWithParam<double> {};

TEST_P(PoissonMeanTest, MeanAndVarianceMatch) {
  const double mean = GetParam();
  const auto kMax = static_cast<std::uint64_t>(mean + 20.0 * std::sqrt(mean) + 20.0);
  double m = 0.0, sq = 0.0;
  for (std::uint64_t k = 0; k <= kMax; ++k) {
    const double p = std::exp(logPoissonPmf(k, mean));
    m += p * static_cast<double>(k);
    sq += p * static_cast<double>(k) * static_cast<double>(k);
  }
  EXPECT_NEAR(m, mean, 1e-9 * std::max(1.0, mean));
  EXPECT_NEAR(sq - m * m, mean, 1e-7 * std::max(1.0, mean));
}

INSTANTIATE_TEST_SUITE_P(Means, PoissonMeanTest,
                         ::testing::Values(0.5, 2.0, 8.0, 25.0, 40.0, 150.0));

TEST(Distributions, LogUniformPdf) {
  EXPECT_NEAR(logUniformPdf(0.5, 0.0, 2.0), std::log(0.5), 1e-12);
  EXPECT_EQ(logUniformPdf(3.0, 0.0, 2.0),
            -std::numeric_limits<double>::infinity());
}

TEST(Distributions, TruncatedNormalStaysInWindow) {
  Stream s(77);
  for (int i = 0; i < 5000; ++i) {
    const double x = truncatedNormal(s, 5.0, 2.0, 4.0, 6.0);
    ASSERT_GE(x, 4.0);
    ASSERT_LE(x, 6.0);
  }
}

TEST(Distributions, TruncatedNormalPdfNormalised) {
  // Integrate numerically over the window.
  const double mu = 1.0, sigma = 0.7, lo = 0.0, hi = 2.5;
  double total = 0.0;
  const int steps = 20000;
  for (int i = 0; i < steps; ++i) {
    const double x = lo + (hi - lo) * (i + 0.5) / steps;
    total += std::exp(logTruncatedNormalPdf(x, mu, sigma, lo, hi));
  }
  total *= (hi - lo) / steps;
  EXPECT_NEAR(total, 1.0, 1e-4);
}

TEST(Distributions, TruncatedNormalPdfOutsideWindow) {
  EXPECT_EQ(logTruncatedNormalPdf(-1.0, 0.0, 1.0, 0.0, 2.0),
            -std::numeric_limits<double>::infinity());
}

TEST(Distributions, NormalMassIsExactlyOneBeyondTheShortcutThreshold) {
  // logTruncatedNormalPdf skips its normaliser when both bounds lie
  // kMassOneZ or more standard deviations out, which is bit-identical only
  // if the mass it would have computed, normalCdf(zHi) - normalCdf(zLo), is
  // exactly 1.0 there. That depends on the libm's erfc, so sweep it here:
  // 31,000 z values in [9, 40) plus the far tail. Each side is checked on
  // its own, so every (zHi, zLo) pair in the range gives 1.0 - tiny == 1.0.
  const auto normalCdf = [](double z) {
    return 0.5 * std::erfc(-z / std::numbers::sqrt2);
  };
  std::vector<double> zs;
  for (int i = 0; i < 31000; ++i) zs.push_back(kMassOneZ + 0.001 * i);
  for (double z : {40.0, 1e3, 1e300, std::numeric_limits<double>::infinity()}) {
    zs.push_back(z);
  }
  for (double z : zs) {
    ASSERT_EQ(normalCdf(z), 1.0) << "z = " << z;
    ASSERT_EQ(1.0 - normalCdf(-z), 1.0) << "z = " << z;
    ASSERT_EQ(normalCdf(z) - normalCdf(-z), 1.0) << "z = " << z;
  }
}

TEST(Distributions, TruncatedNormalShortcutMatchesTheFullNormaliser) {
  // Wide windows take the shortcut; the value must be the full formula's.
  Stream s(78);
  for (int i = 0; i < 2000; ++i) {
    const double mu = s.uniform(-50.0, 50.0);
    const double sigma = s.uniform(0.1, 3.0);
    const double lo = mu - sigma * s.uniform(kMassOneZ, 60.0);
    const double hi = mu + sigma * s.uniform(kMassOneZ, 60.0);
    const double x = s.uniform(lo, hi);
    const double mass = 0.5 * std::erfc(-((hi - mu) / sigma) / std::numbers::sqrt2) -
                        0.5 * std::erfc(-((lo - mu) / sigma) / std::numbers::sqrt2);
    ASSERT_EQ(logTruncatedNormalPdf(x, mu, sigma, lo, hi),
              logNormalPdf(x, mu, sigma) - std::log(mass));
  }
}

class AliasTableTest : public ::testing::TestWithParam<std::vector<double>> {};

TEST_P(AliasTableTest, EmpiricalMatchesWeights) {
  const auto weights = GetParam();
  AliasTable table(weights);
  Stream s(2024);
  std::map<std::size_t, int> counts;
  const int n = 200000;
  for (int i = 0; i < n; ++i) counts[table.sample(s)]++;
  double total = 0.0;
  for (double w : weights) total += std::max(w, 0.0);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double expected = std::max(weights[i], 0.0) / total;
    EXPECT_NEAR(static_cast<double>(counts[i]) / n, expected, 0.01)
        << "weight index " << i;
    EXPECT_NEAR(table.probability(i), expected, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Weights, AliasTableTest,
    ::testing::Values(std::vector<double>{1.0},
                      std::vector<double>{1.0, 1.0, 1.0, 1.0},
                      std::vector<double>{0.08, 0.08, 0.08, 0.08, 0.08, 0.3, 0.3},
                      std::vector<double>{10.0, 1.0, 0.1},
                      std::vector<double>{0.0, 2.0, 0.0, 1.0}));

}  // namespace
}  // namespace mcmcpar::rng
