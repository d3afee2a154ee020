#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <string>
#include <vector>

#include "img/disc_raster.hpp"
#include "img/synth.hpp"
#include "model/likelihood.hpp"
#include "model/likelihood_kernels.hpp"
#include "rng/distributions.hpp"
#include "rng/stream.hpp"

namespace mcmcpar::model {
namespace {

img::ImageF randomImage(int w, int h, std::uint64_t seed) {
  rng::Stream s(seed);
  img::ImageF im(w, h);
  for (float& v : im.pixels()) v = static_cast<float>(s.uniform());
  return im;
}

LikelihoodParams testParams() {
  return LikelihoodParams{0.8, 0.1, 0.25};
}

TEST(PixelLikelihood, EmptyConfigurationMatchesBackgroundModel) {
  const img::ImageF im = randomImage(12, 9, 3);
  const PixelLikelihood lik(im, testParams());
  double expected = 0.0;
  for (float v : im.pixels()) {
    expected += rng::logNormalPdf(v, 0.1, 0.25);
  }
  EXPECT_NEAR(lik.logLikelihood(), expected, 1e-9);
  EXPECT_EQ(lik.coveredGain(), 0.0);
}

TEST(PixelLikelihood, ApplyAddMatchesDeltaAdd) {
  const img::ImageF im = randomImage(32, 32, 5);
  PixelLikelihood lik(im, testParams());
  const Circle c{16, 16, 6};
  const double predicted = lik.deltaAdd(c);
  const double applied = lik.applyAdd(c);
  EXPECT_NEAR(predicted, applied, 1e-12);
  lik.adjustCoveredGain(applied);
  EXPECT_NEAR(lik.coveredGain(), predicted, 1e-12);
}

TEST(PixelLikelihood, AddThenRemoveIsIdentity) {
  const img::ImageF im = randomImage(32, 32, 7);
  PixelLikelihood lik(im, testParams());
  const Circle c{10.5, 20.25, 5.5};
  const double add = lik.applyAdd(c);
  const double remove = lik.applyRemove(c);
  EXPECT_NEAR(add + remove, 0.0, 1e-12);
  for (int y = 0; y < 32; ++y) {
    for (int x = 0; x < 32; ++x) EXPECT_EQ(lik.coverageAt(x, y), 0);
  }
}

TEST(PixelLikelihood, OverlappingCirclesCountPixelsOnce) {
  const img::ImageF im = randomImage(40, 40, 9);
  PixelLikelihood lik(im, testParams());
  const Circle a{20, 20, 6}, b{23, 20, 6};
  lik.adjustCoveredGain(lik.applyAdd(a));
  const double deltaB = lik.deltaAdd(b);
  // The delta for b must only include pixels not already covered by a.
  double manual = 0.0;
  img::forEachDiscPixel(b.x, b.y, b.r, 40, 40, [&](int x, int y) {
    if (!img::pixelInDisc(x, y, a.x, a.y, a.r)) {
      manual += ((im(x, y) - 0.1f) * (im(x, y) - 0.1f) -
                 (im(x, y) - 0.8f) * (im(x, y) - 0.8f)) /
                (2.0 * 0.25 * 0.25);
    }
  });
  // gain is stored as float; the manual reference accumulates in double.
  EXPECT_NEAR(deltaB, manual, 1e-4);
}

TEST(PixelLikelihood, DeltaReplaceExactForOverlappingMove) {
  const img::ImageF im = randomImage(48, 48, 11);
  PixelLikelihood lik(im, testParams());
  const Circle oldC{24, 24, 7};
  const Circle newC{26, 25, 6};  // overlaps oldC
  lik.adjustCoveredGain(lik.applyAdd(oldC));
  const double predicted = lik.deltaReplace(oldC, newC);
  const double applied = lik.applyRemove(oldC) + lik.applyAdd(newC);
  EXPECT_NEAR(predicted, applied, 1e-9);
}

TEST(PixelLikelihood, DeltaReplaceWithThirdCircleCovering) {
  // A third circle keeps some pixels covered during the move; the delta
  // must account for coverage counts, not just membership.
  const img::ImageF im = randomImage(48, 48, 13);
  PixelLikelihood lik(im, testParams());
  const Circle other{24, 24, 8};
  const Circle oldC{20, 24, 5};
  const Circle newC{28, 24, 5};
  lik.adjustCoveredGain(lik.applyAdd(other));
  lik.adjustCoveredGain(lik.applyAdd(oldC));
  const double predicted = lik.deltaReplace(oldC, newC);
  const double applied = lik.applyRemove(oldC) + lik.applyAdd(newC);
  EXPECT_NEAR(predicted, applied, 1e-9);
}

// The two-pass deltaReplace that the one-pass version replaced, kept
// verbatim as the bit-exactness reference: every new-disc row in row order,
// then every old-disc row, each span computed afresh with its cut, and one
// kernel dispatch per span.
template <typename Kernel>
double spanOutsideCut(const float* gainRow, const std::uint16_t* covRow,
                      int x0, int x1, img::RowSpan cut,
                      Kernel&& kernel) noexcept {
  const bool haveCut = cut.x0 < cut.x1;
  const int leftEnd = haveCut ? std::clamp(cut.x0, x0, x1) : x1;
  const int rightBegin = haveCut ? std::clamp(cut.x1, x0, x1) : x1;
  double delta = 0.0;
  if (x0 < leftEnd) {
    delta += kernel(gainRow + x0, covRow + x0,
                    static_cast<std::size_t>(leftEnd - x0));
  }
  if (rightBegin < x1) {
    delta += kernel(gainRow + rightBegin, covRow + rightBegin,
                    static_cast<std::size_t>(x1 - rightBegin));
  }
  return delta;
}

double twoPassDeltaReplace(const PixelLikelihood& lik, const Circle& oldC,
                           const Circle& newC) {
  const img::ImageF& gain_ = lik.gainRaster();
  const img::Image<std::uint16_t>& coverage_ = lik.coverageRaster();
  const int originX_ = lik.originX();
  const int originY_ = lik.originY();
  double delta = 0.0;
  const double ox = oldC.x - originX_;
  const double oy = oldC.y - originY_;
  const double nx = newC.x - originX_;
  const double ny = newC.y - originY_;
  const int width = gain_.width();
  img::forEachDiscSpan(
      nx, ny, newC.r, width, gain_.height(),
      [&](int y, int x0, int x1) noexcept {
        delta += spanOutsideCut(gain_.row(y), coverage_.row(y), x0, x1,
                                img::discRowSpan(ox, oy, oldC.r, y, width),
                                kernels::spanDeltaAdd);
      });
  img::forEachDiscSpan(
      ox, oy, oldC.r, width, gain_.height(),
      [&](int y, int x0, int x1) noexcept {
        delta += spanOutsideCut(gain_.row(y), coverage_.row(y), x0, x1,
                                img::discRowSpan(nx, ny, newC.r, y, width),
                                kernels::spanDeltaRemove);
      });
  return delta;
}

/// Pairs that stress the one-pass walk: overlapping, disjoint (also in
/// rows) and identical discs; discs clipped at each image edge or wholly
/// outside; rim rows thinner than a pixel (half < 1); tiny, zero and
/// negative radii (no rows of their own, but still a cut for the other).
std::vector<std::pair<Circle, Circle>> replacePairs(double x0, double y0,
                                                    double w, double h,
                                                    rng::Stream& s) {
  const double cx = x0 + w / 2;
  const double cy = y0 + h / 2;
  const double px = std::floor(cx) + 0.5;  // a pixel centre
  const double py = std::floor(cy) + 0.5;
  std::vector<std::pair<Circle, Circle>> pairs = {
      // Overlapping, identical, disjoint, and disjoint on the same rows.
      {{cx, cy, 7}, {cx + 1.3, cy - 0.6, 6.5}},
      {{cx, cy, 5}, {cx, cy, 5}},
      {{x0 + 6, y0 + 6, 4}, {x0 + w - 6, y0 + h - 6, 4}},
      {{x0 + 6, cy, 4}, {x0 + w - 6, cy + 0.25, 4}},
      // Clipped at the left, right, top and bottom edge; moved in from
      // outside; clipped on all sides.
      {{x0 + 1, cy, 6}, {x0 - 2.5, cy + 1, 6}},
      {{x0 + w - 1, cy, 6}, {x0 + w + 2.5, cy, 6}},
      {{cx, y0 + 1, 6}, {cx + 0.5, y0 - 2.5, 6}},
      {{cx, y0 + h - 1, 6}, {cx, y0 + h + 2.5, 6}},
      {{x0 - 20, y0 - 20, 5}, {x0 + 2, y0 + 2, 5}},
      {{x0 + 0.5, y0 + 0.5, 30}, {x0 + w, y0 + h, 30}},
      // Rim rows through a pixel centre (half == 0) and thinner than a
      // pixel (half < 1); tiny radii.
      {{px, py, 3.0}, {px, py + 1, 3.0}},
      {{cx + 0.1, cy + 0.37, 2.49}, {cx + 0.3, cy, 2.51}},
      {{cx, cy, 0.3}, {cx + 0.2, cy, 0.6}},
      // Zero radius on a pixel centre: its row range holds one pixel, but
      // forEachDiscSpan visits none. Then a negative radius.
      {{px, py, 0.0}, {cx + 12, cy, 4}},
      {{cx + 12, cy, 4}, {px, py, 0.0}},
      {{cx, cy, 5}, {cx + 1, cy, -3}},
  };
  for (int i = 0; i < 300; ++i) {
    const Circle a{s.uniform(x0 - 8, x0 + w + 8),
                   s.uniform(y0 - 8, y0 + h + 8), s.uniform(0.2, 14)};
    // Half small moves of `a` (mostly ring segments), half anywhere.
    const Circle b =
        s.uniform() < 0.5
            ? Circle{a.x + s.normal(0, 2), a.y + s.normal(0, 2),
                     std::max(0.2, a.r + s.normal(0, 1))}
            : Circle{s.uniform(x0 - 8, x0 + w + 8),
                     s.uniform(y0 - 8, y0 + h + 8), s.uniform(0.2, 14)};
    pairs.emplace_back(a, b);
  }
  return pairs;
}

TEST(PixelLikelihood, DeltaReplaceBitMatchesTwoPassReference) {
  // Sums of float gains within a 2^29 range are exact in double whatever
  // their order, so an order slip would hide behind a plain random image.
  // With the class means at +-0.5 the gain is I/sigma^2, and intensities
  // near 1 mixed with ones 2^30 to 2^32 times smaller give gains whose sums
  // round: folding the rows in any other order than the reference's
  // changes the bits.
  rng::Stream pixels(23);
  img::ImageF full(64, 48);
  for (float& v : full.pixels()) {
    const int exponent =
        pixels.uniform() < 0.5 ? 0 : -30 - static_cast<int>(pixels.below(3));
    const double magnitude =
        (1.0 + pixels.uniform()) * std::ldexp(1.0, exponent);
    v = static_cast<float>(pixels.uniform() < 0.5 ? -magnitude : magnitude);
  }
  const LikelihoodParams wideGains{0.5, -0.5, 0.25};
  const kernels::Backend saved = kernels::activeBackend();
  for (kernels::Backend backend :
       {kernels::Backend::Scalar, kernels::Backend::Avx2}) {
    if (!kernels::setBackend(backend)) continue;  // AVX2 unavailable
    // The full raster, and a crop with a non-zero origin whose circles stay
    // in global coordinates.
    for (const auto& [ox, oy] : {std::pair{0, 0}, std::pair{12, 8}}) {
      const int w = full.width() - ox - 5 * (ox > 0);
      const int h = full.height() - oy - 3 * (oy > 0);
      PixelLikelihood lik(full.crop(ox, oy, w, h), wideGains, ox, oy);
      rng::Stream s(24);
      // Background coverage with counts 0, 1 and 2+ under the moved discs.
      for (int i = 0; i < 12; ++i) {
        lik.adjustCoveredGain(lik.applyAdd(
            Circle{s.uniform(ox, ox + w), s.uniform(oy, oy + h),
                   s.uniform(3, 12)}));
      }
      for (const auto& [oldC, newC] : replacePairs(ox, oy, w, h, s)) {
        // Evaluate both as a proposal would (oldC applied) and against
        // the bare background.
        EXPECT_EQ(lik.deltaReplace(oldC, newC),
                  twoPassDeltaReplace(lik, oldC, newC))
            << kernels::backendName() << " origin " << ox << "," << oy
            << " old " << oldC.x << "," << oldC.y << "," << oldC.r << " new "
            << newC.x << "," << newC.y << "," << newC.r;
        if (!(oldC.r > 0.0)) continue;
        const double added = lik.applyAdd(oldC);
        EXPECT_EQ(lik.deltaReplace(oldC, newC),
                  twoPassDeltaReplace(lik, oldC, newC))
            << kernels::backendName() << " origin " << ox << "," << oy
            << " old " << oldC.x << "," << oldC.y << "," << oldC.r << " new "
            << newC.x << "," << newC.y << "," << newC.r << " (applied)";
        EXPECT_EQ(lik.applyRemove(oldC), -added);
      }
    }
  }
  kernels::setBackend(saved);
}

/// Gains whose double sums round (see DeltaReplaceBitMatchesTwoPassReference
/// for why a plain random image cannot catch a changed summation order).
img::ImageF twoClusterImage(int w, int h, std::uint64_t seed) {
  rng::Stream pixels(seed);
  img::ImageF im(w, h);
  for (float& v : im.pixels()) {
    const int exponent =
        pixels.uniform() < 0.5 ? 0 : -30 - static_cast<int>(pixels.below(3));
    const double magnitude =
        (1.0 + pixels.uniform()) * std::ldexp(1.0, exponent);
    v = static_cast<float>(pixels.uniform() < 0.5 ? -magnitude : magnitude);
  }
  return im;
}

// Per-row reference for the single-disc methods: img::forEachDiscSpan's
// spans (one img::discRowSpan per row), one kernel dispatch per span,
// folded in row order. The apply references run on a copy of the coverage.
template <typename Coverage, typename Kernel>
double perRowSum(const PixelLikelihood& lik, const Circle& c, Coverage& cov,
                 Kernel&& kernel) {
  const img::ImageF& gain = lik.gainRaster();
  double delta = 0.0;
  img::forEachDiscSpan(c.x - lik.originX(), c.y - lik.originY(), c.r,
                       gain.width(), gain.height(), [&](int y, int x0, int x1) {
                         delta += kernel(gain.row(y) + x0, cov.row(y) + x0,
                                         static_cast<std::size_t>(x1 - x0));
                       });
  return delta;
}

TEST(PixelLikelihood, DeltaAndApplyBitMatchPerRowReference) {
  // Taller than one 64-row geometry chunk, so big discs span two.
  const img::ImageF full = twoClusterImage(80, 150, 27);
  const LikelihoodParams wideGains{0.5, -0.5, 0.25};
  const kernels::Backend saved = kernels::activeBackend();
  for (kernels::Backend backend :
       {kernels::Backend::Scalar, kernels::Backend::Avx2}) {
    if (!kernels::setBackend(backend)) continue;  // AVX2 unavailable
    for (const auto& [ox, oy] : {std::pair{0, 0}, std::pair{12, 8}}) {
      const int w = full.width() - ox - 5 * (ox > 0);
      const int h = full.height() - oy - 3 * (oy > 0);
      PixelLikelihood lik(full.crop(ox, oy, w, h), wideGains, ox, oy);
      rng::Stream s(28);
      const double px = ox + 20.5;  // a pixel centre
      const double py = oy + 30.5;
      std::vector<Circle> circles = {
          // Clipped at the left, right, top and bottom edge; wholly outside.
          {ox + 0.5, oy + 40.0, 6},
          {ox + w - 0.5, oy + 40.0, 6},
          {ox + 30.0, oy + 0.5, 6},
          {ox + 30.0, oy + h - 0.5, 6},
          {ox - 20.0, oy - 20.0, 5},
          {ox + w + 30.0, oy + 10.0, 9},
          // Crossing the 64-row chunk; covering everything.
          {ox + 40.0, oy + 70.0, 50},
          {ox + 40.0, oy + 75.0, 1e6},
          // Rims through pixel centres and thinner than a pixel.
          {px + 3, py + 4, 5},
          {px, py, 3.0},
          {px + 0.1, py + 0.37, 0.6},
          // Radii that visit no row at all.
          {px, py, 0.0},
          {px, py, -3.0},
      };
      // Every tenth disc spans more than one 64-row chunk.
      for (int i = 0; i < 400; ++i) {
        circles.push_back(Circle{s.uniform(ox - 8, ox + w + 8),
                                 s.uniform(oy - 8, oy + h + 8),
                                 i % 10 == 0 ? s.uniform(33, 70)
                                             : s.uniform(0.2, 20)});
      }
      for (const Circle& c : circles) {
        const std::string where =
            std::string(kernels::backendName()) + " origin " +
            std::to_string(ox) + "," + std::to_string(oy) + " circle " +
            std::to_string(c.x) + "," + std::to_string(c.y) + "," +
            std::to_string(c.r);
        img::Image<std::uint16_t> cov = lik.coverageRaster();
        EXPECT_EQ(lik.deltaAdd(c),
                  perRowSum(lik, c, cov, kernels::spanDeltaAdd))
            << where;
        const double added = perRowSum(lik, c, cov, kernels::spanApplyAdd);
        EXPECT_EQ(lik.applyAdd(c), added) << where;
        EXPECT_TRUE(lik.coverageRaster() == cov) << where;
        EXPECT_EQ(lik.deltaRemove(c),
                  perRowSum(lik, c, cov, kernels::spanDeltaRemove))
            << where;
        // Keep about a third applied, so coverage counts of 0, 1 and 2+
        // lie under later discs.
        if (s.uniform() < 0.35) continue;
        const double removed =
            perRowSum(lik, c, cov, kernels::spanApplyRemove);
        EXPECT_EQ(lik.applyRemove(c), removed) << where;
        EXPECT_TRUE(lik.coverageRaster() == cov) << where;
        // A partner with no rows of its own (r <= 0; r*r still gives it
        // pixels) can only be cut out through the per-row img::discRowSpan.
        const double cx = std::floor(c.x) + 0.5;
        const double cy = std::floor(c.y) + 0.5;
        for (const Circle& other :
             {Circle{cx, cy, 0.0}, Circle{cx, cy, -2.0}}) {
          EXPECT_EQ(lik.deltaReplace(other, c),
                    twoPassDeltaReplace(lik, other, c))
              << where;
          EXPECT_EQ(lik.deltaReplace(c, other),
                    twoPassDeltaReplace(lik, c, other))
              << where;
        }
      }
    }
  }
  kernels::setBackend(saved);
}

// The count splat deltaMultiple used before its difference-row version,
// kept verbatim (apart from reading the rasters through the public
// accessors into a local buffer) as the bit-exactness reference.
double splatDeltaMultiple(const PixelLikelihood& lik,
                          std::span<const Circle> removed,
                          std::span<const Circle> added) {
  const img::ImageF& gain_ = lik.gainRaster();
  const img::Image<std::uint16_t>& coverage_ = lik.coverageRaster();
  const int originX_ = lik.originX();
  const int originY_ = lik.originY();
  // Joint bounding box of every affected disc, in local coordinates.
  double bx0 = 1e30, by0 = 1e30, bx1 = -1e30, by1 = -1e30;
  const auto extend = [&](const Circle& c) noexcept {
    bx0 = std::min(bx0, c.x - c.r - originX_);
    by0 = std::min(by0, c.y - c.r - originY_);
    bx1 = std::max(bx1, c.x + c.r - originX_);
    by1 = std::max(by1, c.y + c.r - originY_);
  };
  for (const Circle& c : removed) extend(c);
  for (const Circle& c : added) extend(c);
  if (bx1 < bx0) return 0.0;

  const int x0 = std::max(0, static_cast<int>(std::floor(std::max(bx0, -1.0))));
  const int y0 = std::max(0, static_cast<int>(std::floor(std::max(by0, -1.0))));
  const int x1 = std::min(
      gain_.width() - 1,
      static_cast<int>(std::ceil(std::min(bx1, 1.0 + gain_.width()))));
  const int y1 = std::min(
      gain_.height() - 1,
      static_cast<int>(std::ceil(std::min(by1, 1.0 + gain_.height()))));
  if (x1 < x0 || y1 < y0) return 0.0;
  const int bboxWidth = x1 - x0 + 1;

  // Per-row coverage deltas, rebuilt from the circles' row spans (one sqrt
  // per circle per row; every disc span lies inside the bounding box).
  std::vector<std::int16_t> scratch(static_cast<std::size_t>(2 * bboxWidth),
                                    0);
  std::int16_t* dOld = scratch.data();
  std::int16_t* dNew = scratch.data() + bboxWidth;

  double delta = 0.0;
  for (int y = y0; y <= y1; ++y) {
    int rowMin = x1 + 1;
    int rowMax = x0 - 1;
    const auto splat = [&](const Circle& c, std::int16_t* counts) noexcept {
      const img::RowSpan s = img::discRowSpan(
          c.x - originX_, c.y - originY_, c.r, y, gain_.width());
      if (s.x0 >= s.x1) return;
      rowMin = std::min(rowMin, s.x0);
      rowMax = std::max(rowMax, s.x1 - 1);
      for (int x = s.x0; x < s.x1; ++x) {
        counts[x - x0] = static_cast<std::int16_t>(counts[x - x0] + 1);
      }
    };
    for (const Circle& c : removed) splat(c, dOld);
    for (const Circle& c : added) splat(c, dNew);
    if (rowMin > rowMax) continue;
    const int off = rowMin - x0;
    const std::size_t n = static_cast<std::size_t>(rowMax - rowMin + 1);
    delta += kernels::spanTransitionDelta(gain_.row(y) + rowMin,
                                          coverage_.row(y) + rowMin,
                                          dOld + off, dNew + off, n);
    std::fill(dOld + off, dOld + off + n, std::int16_t{0});
    std::fill(dNew + off, dNew + off + n, std::int16_t{0});
  }
  return delta;
}

TEST(PixelLikelihood, DeltaMultipleBitMatchesSplatReference) {
  // Gains whose sums round (see DeltaReplaceBitMatchesTwoPassReference);
  // calls with bounding boxes of many widths on one thread, so per-pixel
  // counts left over from an earlier call would show.
  rng::Stream pixels(25);
  img::ImageF full(64, 48);
  for (float& v : full.pixels()) {
    const int exponent =
        pixels.uniform() < 0.5 ? 0 : -30 - static_cast<int>(pixels.below(3));
    const double magnitude =
        (1.0 + pixels.uniform()) * std::ldexp(1.0, exponent);
    v = static_cast<float>(pixels.uniform() < 0.5 ? -magnitude : magnitude);
  }
  const LikelihoodParams wideGains{0.5, -0.5, 0.25};
  const kernels::Backend saved = kernels::activeBackend();
  for (kernels::Backend backend :
       {kernels::Backend::Scalar, kernels::Backend::Avx2}) {
    if (!kernels::setBackend(backend)) continue;  // AVX2 unavailable
    for (const auto& [ox, oy] : {std::pair{0, 0}, std::pair{12, 8}}) {
      const int w = full.width() - ox - 5 * (ox > 0);
      const int h = full.height() - oy - 3 * (oy > 0);
      PixelLikelihood lik(full.crop(ox, oy, w, h), wideGains, ox, oy);
      rng::Stream s(26);
      for (int i = 0; i < 12; ++i) {
        lik.adjustCoveredGain(lik.applyAdd(
            Circle{s.uniform(ox, ox + w), s.uniform(oy, oy + h),
                   s.uniform(3, 12)}));
      }
      const auto randomCircle = [&]() {
        return Circle{s.uniform(ox - 8, ox + w + 8),
                      s.uniform(oy - 8, oy + h + 8), s.uniform(0.3, 16)};
      };
      for (int trial = 0; trial < 400; ++trial) {
        // Splits, merges, and one to three discs a side; a split's halves
        // often touch, so one disc's span ends where the next begins.
        std::vector<Circle> removed;
        std::vector<Circle> added;
        const Circle c = randomCircle();
        if (trial % 3 == 0) {
          removed = {c};
          added = {Circle{c.x - c.r / 2, c.y, c.r / 2},
                   Circle{c.x + c.r / 2, c.y + s.normal(0, 1), c.r / 2}};
        } else if (trial % 3 == 1) {
          removed = {c, Circle{c.x + s.normal(0, 4), c.y + s.normal(0, 4),
                               s.uniform(0.3, 12)}};
          added = {Circle{c.x + 1, c.y, c.r}};
        } else {
          const std::size_t nRemoved = 1 + s.below(3);
          const std::size_t nAdded = 1 + s.below(3);
          for (std::size_t k = 0; k < nRemoved; ++k) {
            removed.push_back(randomCircle());
          }
          for (std::size_t k = 0; k < nAdded; ++k) {
            added.push_back(randomCircle());
          }
        }
        EXPECT_EQ(lik.deltaMultiple(removed, added),
                  splatDeltaMultiple(lik, removed, added))
            << kernels::backendName() << " origin " << ox << "," << oy
            << " trial " << trial;
      }
    }
  }
  kernels::setBackend(saved);
}

TEST(PixelLikelihood, DeltaMultipleMergeCase) {
  const img::ImageF im = randomImage(64, 64, 15);
  PixelLikelihood lik(im, testParams());
  const Circle a{30, 30, 6}, b{36, 30, 6};
  const Circle m{33, 30, 6};
  lik.adjustCoveredGain(lik.applyAdd(a));
  lik.adjustCoveredGain(lik.applyAdd(b));
  const std::array<Circle, 2> removed{a, b};
  const std::array<Circle, 1> added{m};
  const double predicted = lik.deltaMultiple(removed, added);
  const double applied =
      lik.applyRemove(a) + lik.applyRemove(b) + lik.applyAdd(m);
  EXPECT_NEAR(predicted, applied, 1e-9);
}

TEST(PixelLikelihood, DeltaMultipleSplitCase) {
  const img::ImageF im = randomImage(64, 64, 17);
  PixelLikelihood lik(im, testParams());
  const Circle c{30, 30, 7};
  const Circle c1{27, 30, 5}, c2{33, 30, 5};
  lik.adjustCoveredGain(lik.applyAdd(c));
  const std::array<Circle, 1> removed{c};
  const std::array<Circle, 2> added{c1, c2};
  const double predicted = lik.deltaMultiple(removed, added);
  const double applied =
      lik.applyRemove(c) + lik.applyAdd(c1) + lik.applyAdd(c2);
  EXPECT_NEAR(predicted, applied, 1e-9);
}

TEST(PixelLikelihood, IncrementalMatchesReferenceAfterRandomOps) {
  const img::ImageF im = randomImage(64, 64, 19);
  PixelLikelihood lik(im, testParams());
  rng::Stream s(21);
  std::vector<Circle> applied;
  for (int step = 0; step < 400; ++step) {
    if (applied.empty() || s.uniform() < 0.55) {
      const Circle c{s.uniform(5, 59), s.uniform(5, 59), s.uniform(2, 8)};
      lik.adjustCoveredGain(lik.applyAdd(c));
      applied.push_back(c);
    } else {
      const std::size_t k = static_cast<std::size_t>(s.below(applied.size()));
      lik.adjustCoveredGain(lik.applyRemove(applied[k]));
      applied[k] = applied.back();
      applied.pop_back();
    }
  }
  EXPECT_NEAR(lik.coveredGain(), lik.referenceCoveredGain(applied), 1e-6);
}

TEST(PixelLikelihood, ResynchroniseCancelsInjectedDrift) {
  const img::ImageF im = randomImage(32, 32, 23);
  PixelLikelihood lik(im, testParams());
  const Circle c{16, 16, 6};
  lik.adjustCoveredGain(lik.applyAdd(c));
  const double clean = lik.coveredGain();
  lik.adjustCoveredGain(1e-3);  // inject drift
  lik.resynchronise();
  EXPECT_NEAR(lik.coveredGain(), clean, 1e-9);
}

TEST(PixelLikelihood, CropSeesParentCoverage) {
  const img::ImageF im = randomImage(64, 64, 25);
  PixelLikelihood lik(im, testParams());
  const Circle border{30, 30, 6};
  lik.adjustCoveredGain(lik.applyAdd(border));
  const PixelLikelihood crop = lik.crop(24, 24, 24, 24);
  EXPECT_EQ(crop.originX(), 24);
  EXPECT_EQ(crop.coverageAt(30, 30), lik.coverageAt(30, 30));
  EXPECT_EQ(crop.coveredGainDeltaSinceCrop(), 0.0);
}

TEST(PixelLikelihood, CropDeltaEqualsParentDelta) {
  const img::ImageF im = randomImage(64, 64, 27);
  PixelLikelihood lik(im, testParams());
  PixelLikelihood crop = lik.crop(16, 16, 32, 32);
  const Circle inside{32, 32, 6};  // global coords, fully inside the crop
  EXPECT_NEAR(crop.deltaAdd(inside), lik.deltaAdd(inside), 1e-9);
}

TEST(PixelLikelihood, AbsorbCropRoundTripsAgainstDirectOps) {
  const img::ImageF im = randomImage(64, 64, 29);
  // Two identical parents: one runs ops through a crop, one directly.
  PixelLikelihood viaCrop(im, testParams());
  PixelLikelihood direct(im, testParams());
  const Circle pre{20, 20, 6};
  viaCrop.adjustCoveredGain(viaCrop.applyAdd(pre));
  direct.adjustCoveredGain(direct.applyAdd(pre));

  PixelLikelihood crop = viaCrop.crop(8, 8, 40, 40);
  const Circle added{28, 28, 5};
  const Circle removedThenMoved{20, 20, 6};
  crop.adjustCoveredGain(crop.applyAdd(added));
  crop.adjustCoveredGain(crop.applyRemove(removedThenMoved));
  const Circle moved{24, 18, 6};
  crop.adjustCoveredGain(crop.applyAdd(moved));
  viaCrop.absorbCrop(crop);

  direct.adjustCoveredGain(direct.applyAdd(added));
  direct.adjustCoveredGain(direct.applyRemove(removedThenMoved));
  direct.adjustCoveredGain(direct.applyAdd(moved));

  EXPECT_NEAR(viaCrop.coveredGain(), direct.coveredGain(), 1e-9);
  EXPECT_NEAR(viaCrop.logLikelihood(), direct.logLikelihood(), 1e-9);
  for (int y = 0; y < 64; ++y) {
    for (int x = 0; x < 64; ++x) {
      ASSERT_EQ(viaCrop.coverageAt(x, y), direct.coverageAt(x, y))
          << x << "," << y;
    }
  }
}

TEST(PixelLikelihood, ApplyRemoveOnUncoveredPixelsClampsInsteadOfWrapping) {
  // Regression: removing a circle that was never applied used to wrap the
  // uint16 coverage to 65535 in Release builds (the assert compiled out),
  // silently corrupting every subsequent delta. The guard is now real:
  // debug builds assert, release builds clamp at zero.
  const img::ImageF im = randomImage(32, 32, 41);
  PixelLikelihood lik(im, testParams());
  const Circle never{16, 16, 5};
#if defined(NDEBUG)
  const double delta = lik.applyRemove(never);
  EXPECT_EQ(delta, 0.0);  // nothing was covered, nothing became bare
  for (int y = 0; y < 32; ++y) {
    for (int x = 0; x < 32; ++x) {
      ASSERT_EQ(lik.coverageAt(x, y), 0) << x << "," << y;  // no 65535 wrap
    }
  }
  // Subsequent deltas are uncorrupted: add/remove still round-trips and
  // matches the from-scratch reference.
  const Circle c{14, 17, 6};
  const double add = lik.applyAdd(c);
  lik.resynchronise();
  const std::array<Circle, 1> applied{c};
  EXPECT_EQ(lik.coveredGain(), lik.referenceCoveredGain(applied));
  EXPECT_EQ(lik.applyRemove(c), -add);
#else
  EXPECT_DEATH(lik.applyRemove(never), "applyRemove on an uncovered pixel");
#endif
}

TEST(PixelLikelihood, ConstTermMatchesLongDoubleReferenceOnLargeImage) {
  // 2048^2 pixels into one total of magnitude ~6.2e6. Measured on this
  // workload: the compensated constructor sum lands ~1.2e-8 from the
  // long-double reference, a naive double accumulator ~5.7e-7. The bound
  // sits ~12x above the former and ~4x below the latter, so reverting to
  // naive summation fails here.
  const int N = 2048;
  rng::Stream s(43);
  img::ImageF im(N, N);
  for (float& v : im.pixels()) v = static_cast<float>(s.uniform());
  const LikelihoodParams params = testParams();
  const PixelLikelihood lik(im, params);

  long double reference = 0.0L;
  for (float v : im.pixels()) {
    reference += static_cast<long double>(
        rng::logNormalPdf(static_cast<double>(v), params.bgMean, params.sigma));
  }
  EXPECT_NEAR(static_cast<double>(static_cast<long double>(lik.logLikelihood()) -
                                  reference),
              0.0, 1.5e-7);
}

TEST(PixelLikelihood, ResynchroniseMatchesLongDoubleReferenceOnLargeImage) {
  const int N = 2048;
  rng::Stream s(47);
  img::ImageF im(N, N);
  for (float& v : im.pixels()) v = static_cast<float>(s.uniform());
  PixelLikelihood lik(im, testParams());
  // Cover roughly half the raster with a handful of giant discs.
  std::vector<Circle> circles;
  for (int i = 0; i < 12; ++i) {
    circles.push_back(
        Circle{s.uniform(0, N), s.uniform(0, N), s.uniform(150, 450)});
  }
  for (const Circle& c : circles) lik.adjustCoveredGain(lik.applyAdd(c));
  lik.resynchronise();

  long double reference = 0.0L;
  for (int y = 0; y < N; ++y) {
    for (int x = 0; x < N; ++x) {
      if (lik.coverageAt(x, y) > 0) {
        // Exactly the constructor's gain expression (the /0.125 is an exact
        // power-of-two scaling, identical to its *8.0), rounded to float as
        // stored, then accumulated in long double.
        const double g =
            ((im(x, y) - 0.1) * (im(x, y) - 0.1) -
             (im(x, y) - 0.8) * (im(x, y) - 0.8)) /
            (2.0 * 0.25 * 0.25);
        reference += static_cast<long double>(static_cast<float>(g));
      }
    }
  }
  // ~2.1M covered pixels sum to ~1.2e6 with condition number ~5. Measured:
  // the lane-chunked span kernels + per-row Kahan fold land ~1.1e-10 from
  // the long-double reference; the bound leaves ~100x slack while staying
  // ~9 decimal digits tighter than the total itself.
  EXPECT_NEAR(
      static_cast<double>(static_cast<long double>(lik.coveredGain()) - reference),
      0.0, 1e-8);
}

TEST(PixelLikelihood, OriginOffsetKeepsGlobalCoordinates) {
  // A likelihood built directly over a crop with an origin must agree with
  // deltas of a full-image likelihood for circles inside the crop.
  const img::ImageF full = randomImage(48, 48, 31);
  const img::ImageF sub = full.crop(12, 8, 24, 24);
  const PixelLikelihood whole(full, testParams());
  const PixelLikelihood offset(sub, testParams(), 12, 8);
  const Circle c{22, 18, 4};  // global coordinates, inside crop
  EXPECT_NEAR(offset.deltaAdd(c), whole.deltaAdd(c), 1e-6);
}

}  // namespace
}  // namespace mcmcpar::model
