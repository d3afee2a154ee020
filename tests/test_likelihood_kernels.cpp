// Property suite for the span-based likelihood hot path (see
// src/model/likelihood_kernels.hpp for the determinism policy these tests
// enforce): delta/apply consistency is bit-exact, the scalar and AVX2
// backends and the inline short-span path are bit-identical, resynchronise
// bit-matches the from-scratch reference, and the uint16 coverage guard
// rails (clamp at 0, saturate at 65535) hold. The batched row geometry
// returns img::discRowSpan's spans bit for bit on every backend.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "img/disc_raster.hpp"
#include "model/likelihood.hpp"
#include "model/likelihood_kernels.hpp"
#include "rng/stream.hpp"

namespace mcmcpar::model {
namespace {

namespace k = kernels;

/// Restore the dispatched backend on scope exit so a failing test cannot
/// poison the rest of the binary.
struct BackendGuard {
  k::Backend saved = k::activeBackend();
  ~BackendGuard() { k::setBackend(saved); }
};

img::ImageF randomImage(int w, int h, std::uint64_t seed) {
  rng::Stream s(seed);
  img::ImageF im(w, h);
  for (float& v : im.pixels()) v = static_cast<float>(s.uniform());
  return im;
}

LikelihoodParams testParams() { return LikelihoodParams{0.8, 0.1, 0.25}; }

/// Reference implementation of the documented lane semantics, written as
/// naively as possible.
double laneReference(const std::vector<float>& gain,
                     const std::vector<std::uint16_t>& cov, bool addWhenZero) {
  double lanes[k::kLanes] = {};
  for (std::size_t i = 0; i < gain.size(); ++i) {
    if (addWhenZero ? cov[i] == 0 : cov[i] == 1) {
      lanes[i % k::kLanes] += static_cast<double>(gain[i]);
    }
  }
  return ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
         ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
}

struct RandomSpan {
  std::vector<float> gain;
  std::vector<std::uint16_t> cov;
};

RandomSpan randomSpan(rng::Stream& s, std::size_t n) {
  RandomSpan out;
  out.gain.resize(n);
  out.cov.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.gain[i] = static_cast<float>(s.uniform(-8.0, 8.0));
    const double u = s.uniform();
    out.cov[i] = u < 0.45 ? 0 : u < 0.8 ? 1 : static_cast<std::uint16_t>(s.below(5) + 1);
  }
  return out;
}

/// Gains whose double sums round: values near 1 mixed with values 2^30 to
/// 2^32 times smaller. Sums of floats within a 2^29 range are exact in
/// double whatever their order, which would hide a lane or combine-order
/// slip; with this mix a reordered sum changes the bits about one time in
/// six.
float roundingGain(rng::Stream& s) {
  const int exponent =
      s.uniform() < 0.5 ? 0 : -30 - static_cast<int>(s.below(3));
  const double magnitude = (1.0 + s.uniform()) * std::ldexp(1.0, exponent);
  return static_cast<float>(s.uniform() < 0.5 ? -magnitude : magnitude);
}

TEST(LikelihoodKernels, ScalarMatchesDocumentedLaneSemantics) {
  BackendGuard guard;
  ASSERT_TRUE(k::setBackend(k::Backend::Scalar));
  rng::Stream s(101);
  for (std::size_t n : {0u, 1u, 3u, 7u, 8u, 9u, 16u, 31u, 64u, 200u}) {
    const RandomSpan span = randomSpan(s, n);
    EXPECT_EQ(k::spanDeltaAdd(span.gain.data(), span.cov.data(), n),
              laneReference(span.gain, span.cov, true));
    EXPECT_EQ(k::spanDeltaRemove(span.gain.data(), span.cov.data(), n),
              -laneReference(span.gain, span.cov, false));
  }
}

TEST(LikelihoodKernels, Avx2BitMatchesScalarOnRandomSpans) {
  if (!k::avx2Available()) {
    GTEST_SKIP() << "AVX2 kernels not compiled in or CPU lacks AVX2";
  }
  BackendGuard guard;
  rng::Stream s(202);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = s.below(70);
    const RandomSpan span = randomSpan(s, n);

    ASSERT_TRUE(k::setBackend(k::Backend::Scalar));
    const double addS = k::spanDeltaAdd(span.gain.data(), span.cov.data(), n);
    const double remS =
        k::spanDeltaRemove(span.gain.data(), span.cov.data(), n);
    const double sumS =
        k::spanSumCovered(span.gain.data(), span.cov.data(), n);
    std::vector<std::uint16_t> covApplyS = span.cov;
    const double applyAddS =
        k::spanApplyAdd(span.gain.data(), covApplyS.data(), n);
    const double applyRemS =
        k::spanApplyRemove(span.gain.data(), covApplyS.data(), n);

    ASSERT_TRUE(k::setBackend(k::Backend::Avx2));
    EXPECT_EQ(addS, k::spanDeltaAdd(span.gain.data(), span.cov.data(), n));
    EXPECT_EQ(remS, k::spanDeltaRemove(span.gain.data(), span.cov.data(), n));
    EXPECT_EQ(sumS, k::spanSumCovered(span.gain.data(), span.cov.data(), n));
    std::vector<std::uint16_t> covApplyV = span.cov;
    EXPECT_EQ(applyAddS, k::spanApplyAdd(span.gain.data(), covApplyV.data(), n));
    EXPECT_EQ(applyRemS,
              k::spanApplyRemove(span.gain.data(), covApplyV.data(), n));
    EXPECT_EQ(covApplyS, covApplyV);
  }
}

TEST(LikelihoodKernels, Avx2TransitionDeltaBitMatchesScalar) {
  if (!k::avx2Available()) {
    GTEST_SKIP() << "AVX2 kernels not compiled in or CPU lacks AVX2";
  }
  BackendGuard guard;
  rng::Stream s(203);
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t n = s.below(71);
    std::vector<float> gain(n);
    std::vector<std::uint16_t> cov(n);
    std::vector<std::int16_t> dOld(n);
    std::vector<std::int16_t> dNew(n);
    for (std::size_t i = 0; i < n; ++i) {
      gain[i] = roundingGain(s);
      // Mostly small counts, where transitions happen, plus counts near the
      // top of the uint16 range that only a 32-bit widening gets right.
      const double u = s.uniform();
      cov[i] = u < 0.3   ? 0
               : u < 0.6 ? 1
               : u < 0.85
                   ? static_cast<std::uint16_t>(s.below(4) + 2)
                   : static_cast<std::uint16_t>(65535 - s.below(4));
      dOld[i] = static_cast<std::int16_t>(s.below(4));
      dNew[i] = static_cast<std::int16_t>(s.below(4));
    }

    ASSERT_TRUE(k::setBackend(k::Backend::Scalar));
    const double scalar = k::spanTransitionDelta(
        gain.data(), cov.data(), dOld.data(), dNew.data(), n);
    ASSERT_TRUE(k::setBackend(k::Backend::Avx2));
    EXPECT_EQ(scalar, k::spanTransitionDelta(gain.data(), cov.data(),
                                             dOld.data(), dNew.data(), n))
        << "trial " << trial << ", n " << n;
  }
}

TEST(LikelihoodKernels, ShortSpanPathBitMatchesKernels) {
  BackendGuard guard;
  rng::Stream s(204);
  for (k::Backend b : {k::Backend::Scalar, k::Backend::Avx2}) {
    if (b == k::Backend::Avx2 && !k::avx2Available()) continue;
    ASSERT_TRUE(k::setBackend(b));
    for (int trial = 0; trial < 50; ++trial) {
      for (std::size_t n = 0; n < k::kLanes; ++n) {
        RandomSpan span = randomSpan(s, n);
        for (float& g : span.gain) g = roundingGain(s);
        EXPECT_EQ(k::shortSpanDeltaAdd(span.gain.data(), span.cov.data(), n),
                  k::spanDeltaAdd(span.gain.data(), span.cov.data(), n))
            << k::backendName() << ", n " << n;
        EXPECT_EQ(
            k::shortSpanDeltaRemove(span.gain.data(), span.cov.data(), n),
            k::spanDeltaRemove(span.gain.data(), span.cov.data(), n))
            << k::backendName() << ", n " << n;
      }
    }
  }
}

TEST(LikelihoodKernels, ApplyAddSaturatesInsteadOfWrapping) {
  BackendGuard guard;
  std::vector<float> gain(20, 1.0f);
  for (k::Backend b : {k::Backend::Scalar, k::Backend::Avx2}) {
    if (b == k::Backend::Avx2 && !k::avx2Available()) continue;
    ASSERT_TRUE(k::setBackend(b));
    std::vector<std::uint16_t> cov(20, 65535);
    const double delta = k::spanApplyAdd(gain.data(), cov.data(), cov.size());
    EXPECT_EQ(delta, 0.0);  // nothing newly covered
    for (std::uint16_t c : cov) EXPECT_EQ(c, 65535);
  }
}

TEST(LikelihoodKernels, ApplyRemoveClampsAtZeroInsteadOfWrapping) {
  BackendGuard guard;
  std::vector<float> gain(20, 1.0f);
#if defined(NDEBUG)
  for (k::Backend b : {k::Backend::Scalar, k::Backend::Avx2}) {
    if (b == k::Backend::Avx2 && !k::avx2Available()) continue;
    ASSERT_TRUE(k::setBackend(b));
    std::vector<std::uint16_t> cov(20, 0);
    cov[3] = 1;  // one genuinely covered pixel among bare ones
    const double delta =
        k::spanApplyRemove(gain.data(), cov.data(), cov.size());
    EXPECT_EQ(delta, -1.0);  // only the covered pixel contributes
    for (std::uint16_t c : cov) EXPECT_EQ(c, 0);  // clamped, no 65535 wrap
  }
#else
  std::vector<std::uint16_t> cov(20, 0);
  EXPECT_DEATH(k::spanApplyRemove(gain.data(), cov.data(), cov.size()),
               "applyRemove on an uncovered pixel");
#endif
}

TEST(LikelihoodKernels, DeltaAddBitMatchesApplyAdd) {
  const img::ImageF im = randomImage(96, 96, 303);
  rng::Stream s(304);
  PixelLikelihood lik(im, testParams());
  // Pre-cover part of the raster so spans mix covered/uncovered pixels.
  lik.adjustCoveredGain(lik.applyAdd(Circle{40, 40, 18}));
  for (int trial = 0; trial < 50; ++trial) {
    const Circle c{s.uniform(-5, 101), s.uniform(-5, 101), s.uniform(1, 20)};
    const double predicted = lik.deltaAdd(c);
    const double applied = lik.applyAdd(c);
    EXPECT_EQ(predicted, applied) << "trial " << trial;
    const double removed = lik.applyRemove(c);
    EXPECT_EQ(removed, -applied) << "trial " << trial;
  }
}

TEST(LikelihoodKernels, DeltaRemoveBitMatchesApplyRemove) {
  const img::ImageF im = randomImage(96, 96, 305);
  rng::Stream s(306);
  PixelLikelihood lik(im, testParams());
  std::vector<Circle> applied;
  for (int i = 0; i < 30; ++i) {
    const Circle c{s.uniform(0, 96), s.uniform(0, 96), s.uniform(2, 14)};
    lik.adjustCoveredGain(lik.applyAdd(c));
    applied.push_back(c);
  }
  for (const Circle& c : applied) {
    const double predicted = lik.deltaRemove(c);
    const double removed = lik.applyRemove(c);
    EXPECT_EQ(predicted, removed);
    lik.adjustCoveredGain(removed);
  }
}

TEST(LikelihoodKernels, ApplyRoundTripRestoresCoveredGain) {
  const img::ImageF im = randomImage(80, 80, 307);
  rng::Stream s(308);
  PixelLikelihood lik(im, testParams());
  lik.adjustCoveredGain(lik.applyAdd(Circle{30, 30, 12}));
  const double before = lik.coveredGain();
  for (int trial = 0; trial < 40; ++trial) {
    const Circle c{s.uniform(0, 80), s.uniform(0, 80), s.uniform(1, 16)};
    const double add = lik.applyAdd(c);
    const double rem = lik.applyRemove(c);
    // The remove delta is the exact negation (same lanes, same order), so
    // the round trip cancels exactly.
    ASSERT_EQ(rem, -add) << "trial " << trial;
    lik.adjustCoveredGain(add);
    lik.adjustCoveredGain(rem);
  }
  // Each (v + d) + (-d) round trip can leave an ulp of drift on the running
  // total; 40 trips stay comfortably under 1e-9.
  EXPECT_NEAR(lik.coveredGain(), before, 1e-9);
}

TEST(LikelihoodKernels, ResynchroniseBitMatchesReferenceCoveredGain) {
  const img::ImageF im = randomImage(128, 128, 309);
  rng::Stream s(310);
  PixelLikelihood lik(im, testParams());
  std::vector<Circle> applied;
  for (int step = 0; step < 300; ++step) {
    if (applied.empty() || s.uniform() < 0.6) {
      const Circle c{s.uniform(0, 128), s.uniform(0, 128), s.uniform(2, 12)};
      lik.adjustCoveredGain(lik.applyAdd(c));
      applied.push_back(c);
    } else {
      const std::size_t i = static_cast<std::size_t>(s.below(applied.size()));
      lik.adjustCoveredGain(lik.applyRemove(applied[i]));
      applied[i] = applied.back();
      applied.pop_back();
    }
  }
  lik.resynchronise();
  EXPECT_EQ(lik.coveredGain(), lik.referenceCoveredGain(applied));
}

TEST(LikelihoodKernels, WholeLikelihoodIsBackendInvariant) {
  if (!k::avx2Available()) {
    GTEST_SKIP() << "AVX2 kernels not compiled in or CPU lacks AVX2";
  }
  BackendGuard guard;
  const img::ImageF im = randomImage(100, 100, 311);

  const auto runScript = [&im]() {
    PixelLikelihood lik(im, testParams());
    rng::Stream s(312);
    std::vector<double> out;
    std::vector<Circle> applied;
    for (int step = 0; step < 120; ++step) {
      const Circle c{s.uniform(0, 100), s.uniform(0, 100), s.uniform(2, 15)};
      out.push_back(lik.deltaAdd(c));
      lik.adjustCoveredGain(lik.applyAdd(c));
      applied.push_back(c);
      if (applied.size() > 3 && s.uniform() < 0.4) {
        const Circle old = applied.back();
        applied.pop_back();
        const Circle moved{old.x + s.normal(0, 2), old.y + s.normal(0, 2),
                           old.r};
        out.push_back(lik.deltaReplace(old, moved));
        lik.adjustCoveredGain(lik.applyRemove(old));
        lik.adjustCoveredGain(lik.applyAdd(moved));
        applied.push_back(moved);
      }
    }
    lik.resynchronise();
    out.push_back(lik.coveredGain());
    out.push_back(lik.logLikelihood());
    return out;
  };

  ASSERT_TRUE(k::setBackend(k::Backend::Scalar));
  const std::vector<double> scalar = runScript();
  ASSERT_TRUE(k::setBackend(k::Backend::Avx2));
  const std::vector<double> avx2 = runScript();
  ASSERT_EQ(scalar.size(), avx2.size());
  for (std::size_t i = 0; i < scalar.size(); ++i) {
    EXPECT_EQ(scalar[i], avx2[i]) << "value " << i;
  }
}

/// One disc and a row range to run SpanKernels::discRows over.
struct GeometryCase {
  double cx, cy, r;
  int width;
  img::RowRange rows;
};

/// Compare discRows against the per-row img::discRowSpan on every row of
/// `c.rows`, and check that nothing past the last row is written.
void expectDiscRowsMatch(const GeometryCase& c) {
  const int n = c.rows.y1 - c.rows.y0 + 1;
  const img::RowSpan guardSpan{-7, -7};
  std::vector<img::RowSpan> out(static_cast<std::size_t>(std::max(n, 0)) + 1,
                                guardSpan);
  k::spanKernels().discRows(c.cx, c.cy, c.r, c.rows, c.width, out.data());
  for (int i = 0; i < n; ++i) {
    const int y = c.rows.y0 + i;
    const img::RowSpan want = img::discRowSpan(c.cx, c.cy, c.r, y, c.width);
    const img::RowSpan got = out[static_cast<std::size_t>(i)];
    ASSERT_TRUE(got.x0 == want.x0 && got.x1 == want.x1)
        << k::backendName() << std::hexfloat << " disc " << c.cx << ","
        << c.cy << "," << c.r << std::defaultfloat << " width " << c.width
        << " row " << y << ": got [" << got.x0 << "," << got.x1
        << ") want [" << want.x0 << "," << want.x1 << ")";
  }
  const img::RowSpan after = out.back();
  ASSERT_TRUE(after.x0 == guardSpan.x0 && after.x1 == guardSpan.x1)
      << k::backendName() << " wrote past the last of " << n << " rows";
}

std::vector<GeometryCase> geometryCases() {
  rng::Stream s(401);
  std::vector<GeometryCase> cases;
  const auto discRows = [](double cx, double cy, double r, int width,
                           int height) {
    return GeometryCase{cx, cy, r, width, img::discRowRange(cy, r, height)};
  };
  // Random discs, half over their own clipped rows and half over a random
  // row window of the raster (the bounding-box rows of a split or merge,
  // mostly outside the disc); lengths cross the 4-row vectors and the
  // 64-row chunks of the likelihood's stack buffers.
  for (int i = 0; i < 100000; ++i) {
    const int width = 1 + static_cast<int>(s.below(160));
    const int height = 1 + static_cast<int>(s.below(160));
    const double cx = s.uniform(-25, width + 25);
    const double cy = s.uniform(-25, height + 25);
    const double r =
        s.uniform() < 0.1 ? s.uniform(0.0, 1.0) : s.uniform(0.0, 45.0);
    if (i % 2 == 0) {
      cases.push_back(discRows(cx, cy, r, width, height));
    } else {
      const int y0 =
          static_cast<int>(s.below(static_cast<std::uint64_t>(height)));
      const int len = static_cast<int>(
          s.below(static_cast<std::uint64_t>(height - y0) + 1));
      cases.push_back({cx, cy, r, width, {y0, y0 + len - 1}});
    }
  }
  // Integer and half-integer centres and radii: pixel centres land exactly
  // on the rim and span endpoints on exact integers.
  for (int i = 0; i < 4000; ++i) {
    const double cx = 0.5 * static_cast<double>(s.below(120)) - 10.0;
    const double cy = 0.5 * static_cast<double>(s.below(120)) - 10.0;
    const double r = 0.5 * static_cast<double>(s.below(60));
    cases.push_back(discRows(cx, cy, r, 40, 40));
  }
  // Pythagorean rims: the pixel centre (40.5, 40.5) at offset (3t, 4t) or
  // (4t, 3t), in either direction, from a centre of radius 5t. At t = 0.2
  // this is the 0.6/0.8/1.0 triangle, whose squares round; at integer t
  // they are exact.
  for (const double t : {0.2, 0.4, 0.6, 1.0, 1.4, 2.0, 3.0, 5.0, 7.0}) {
    for (const auto& [dx, dy] : {std::pair{3.0, 4.0}, std::pair{4.0, 3.0}}) {
      for (const double sx : {-1.0, 1.0}) {
        for (const double sy : {-1.0, 1.0}) {
          cases.push_back(discRows(40.5 + sx * dx * t, 40.5 + sy * dy * t,
                                   5 * t, 96, 96));
        }
      }
    }
  }
  // Discs clipped at each edge and fully outside the raster.
  for (const double r : {0.4, 3.0, 12.5}) {
    for (const auto& [cx, cy] :
         {std::pair{0.2, 20.0}, std::pair{39.7, 20.0}, std::pair{20.0, 0.1},
          std::pair{20.0, 39.9}, std::pair{-0.5, -0.5}, std::pair{40.5, 40.5},
          std::pair{-30.0, 20.0}, std::pair{70.0, 20.0},
          std::pair{20.0, -30.0}, std::pair{20.0, 70.0}}) {
      cases.push_back(discRows(cx, cy, r, 40, 40));
      cases.push_back({cx, cy, r, 40, {0, 39}});
    }
  }
  // Giant radii and centres: the clamps carry the span (r*r may overflow
  // to infinity, and the slack test meets inf and NaN). A giant centre row
  // offset with an infinite r*r is left out: its inf - inf would send
  // img::discRowSpan itself through a NaN-to-int cast.
  for (const double r : {1e6, 1e12, 1e155, 1e200}) {
    for (const double c : {20.0, -1e9, 1e9, 1e300}) {
      cases.push_back({c, 20.0, r, 40, {0, 39}});
      if (c < 1e300 || r < 1e150) cases.push_back({20.0, c, r, 40, {0, 39}});
    }
  }
  // Row counts around the 4-row vector and the 64-row chunk boundaries.
  for (int len = 1; len <= 140; ++len) {
    cases.push_back({70.3, 70.7, 60.0, 150, {3, 3 + len - 1}});
  }
  return cases;
}

TEST(LikelihoodKernels, DiscRowsBitMatchDiscRowSpan) {
  BackendGuard guard;
  const std::vector<GeometryCase> cases = geometryCases();
  for (k::Backend b : {k::Backend::Scalar, k::Backend::Avx2}) {
    if (b == k::Backend::Avx2 && !k::avx2Available()) continue;
    ASSERT_TRUE(k::setBackend(b));
    for (const GeometryCase& c : cases) {
      expectDiscRowsMatch(c);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(LikelihoodKernels, BackendForcingRoundTrips) {
  BackendGuard guard;
  EXPECT_TRUE(k::setBackend(k::Backend::Scalar));
  EXPECT_EQ(k::activeBackend(), k::Backend::Scalar);
  EXPECT_STREQ(k::backendName(), "scalar");
  if (k::avx2Available()) {
    EXPECT_TRUE(k::setBackend(k::Backend::Avx2));
    EXPECT_EQ(k::activeBackend(), k::Backend::Avx2);
    EXPECT_STREQ(k::backendName(), "avx2");
  } else {
    EXPECT_FALSE(k::setBackend(k::Backend::Avx2));
    EXPECT_EQ(k::activeBackend(), k::Backend::Scalar);
  }
}

TEST(LikelihoodKernels, KahanSumBeatsNaiveOnAdversarialSequence) {
  // 1 followed by many tiny values that a naive double sum drops entirely.
  k::KahanSum kahan;
  double naive = 0.0;
  kahan.add(1.0);
  naive += 1.0;
  const double tiny = 1e-16;
  for (int i = 0; i < 10000; ++i) {
    kahan.add(tiny);
    naive += tiny;
  }
  const double exact = 1.0 + 1e-12;
  EXPECT_EQ(naive, 1.0);  // every tiny add rounds away
  EXPECT_NEAR(kahan.value(), exact, 1e-15);
}

}  // namespace
}  // namespace mcmcpar::model
